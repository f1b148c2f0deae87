package onvm

import (
	"bytes"
	"testing"
)

func TestMempoolLifecycle(t *testing.T) {
	p := MustNewMempool(4)
	if p.Size() != 4 || p.Available() != 4 {
		t.Fatalf("size/avail = %d/%d", p.Size(), p.Available())
	}
	ms := make([]*Mbuf, 0, 4)
	for i := 0; i < 4; i++ {
		m := p.Get()
		if m == nil {
			t.Fatalf("Get %d returned nil with %d available", i, p.Available())
		}
		ms = append(ms, m)
	}
	if p.Get() != nil {
		t.Error("exhausted pool returned an mbuf")
	}
	for _, m := range ms {
		m.Free()
	}
	if p.Available() != 4 {
		t.Errorf("available after free = %d, want 4", p.Available())
	}
}

func TestMempoolDoubleFreeHarmless(t *testing.T) {
	p := MustNewMempool(2)
	m := p.Get()
	m.Free()
	m.Free() // double free must not corrupt the pool
	if p.Available() > 2 {
		t.Errorf("double free inflated pool to %d", p.Available())
	}
}

func TestMempoolValidation(t *testing.T) {
	if _, err := NewMempool(0); err == nil {
		t.Error("zero-size pool accepted")
	}
}

func TestMbufResetAndCapacity(t *testing.T) {
	p := MustNewMempool(1)
	m := p.Get()
	buf, err := m.Reset(1518)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 1518 {
		t.Errorf("reset len = %d", len(buf))
	}
	if _, err := m.Reset(MbufSize); err == nil {
		t.Error("oversized reset accepted")
	}
	if _, err := m.Reset(-1); err == nil {
		t.Error("negative reset accepted")
	}
}

func TestMbufPrependAdj(t *testing.T) {
	p := MustNewMempool(1)
	m := p.Get()
	buf, _ := m.Reset(100)
	for i := range buf {
		buf[i] = byte(i)
	}
	hdr, err := m.Prepend(8)
	if err != nil {
		t.Fatal(err)
	}
	copy(hdr, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if len(m.Data) != 108 {
		t.Fatalf("after prepend len = %d, want 108", len(m.Data))
	}
	if !bytes.Equal(m.Data[:8], []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Error("prepended header corrupted")
	}
	if m.Data[8] != 0 || m.Data[9] != 1 {
		t.Error("original payload shifted")
	}
	if err := m.Adj(8); err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != 100 || m.Data[0] != 0 {
		t.Error("adj did not restore original frame")
	}
	if err := m.Adj(1000); err == nil {
		t.Error("oversized adj accepted")
	}
	if _, err := m.Prepend(0); err == nil {
		t.Error("zero prepend accepted")
	}
}

func TestMbufPrependExhaustsHeadroom(t *testing.T) {
	p := MustNewMempool(1)
	m := p.Get()
	_, _ = m.Reset(64)
	if _, err := m.Prepend(Headroom); err != nil {
		t.Fatalf("full-headroom prepend failed: %v", err)
	}
	if _, err := m.Prepend(1); err == nil {
		t.Error("prepend past headroom accepted")
	}
}

func TestMbufResetClearsMetadata(t *testing.T) {
	p := MustNewMempool(1)
	m := p.Get()
	m.Port, m.FlowHash, m.Arrival, m.ChainPos = 3, 7, 1.5, 2
	_, _ = m.Reset(64)
	if m.Port != 0 || m.FlowHash != 0 || m.Arrival != 0 || m.ChainPos != 0 {
		t.Error("reset did not clear metadata")
	}
}

// MustNewMempool is NewMempool that panics on error.
func MustNewMempool(n int) *Mempool {
	p, err := NewMempool(n)
	if err != nil {
		panic(err)
	}
	return p
}
