package onvm

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestRingRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, 1, 3, 100} {
		if _, err := NewRing(c); err == nil {
			t.Errorf("capacity %d accepted", c)
		}
	}
	if _, err := NewRing(8); err != nil {
		t.Errorf("capacity 8 rejected: %v", err)
	}
}

func TestRingFIFOSingleThread(t *testing.T) {
	r := MustNewRing(8)
	ms := makeMbufs(5)
	for _, m := range ms {
		if !r.Enqueue(m) {
			t.Fatal("enqueue failed on non-full ring")
		}
	}
	if r.Len() != 5 {
		t.Errorf("len = %d, want 5", r.Len())
	}
	for i, want := range ms {
		got := dequeue(r)
		if got != want {
			t.Fatalf("dequeue %d: wrong mbuf", i)
		}
	}
	if dequeue(r) != nil {
		t.Error("dequeue from empty ring returned a packet")
	}
}

func TestRingFullRejects(t *testing.T) {
	r := MustNewRing(4)
	ms := makeMbufs(5)
	for i := 0; i < 4; i++ {
		if !r.Enqueue(ms[i]) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if r.Enqueue(ms[4]) {
		t.Error("enqueue into full ring succeeded")
	}
	if r.Cap() != 4 {
		t.Errorf("cap = %d", r.Cap())
	}
}

func TestRingBurstOperations(t *testing.T) {
	r := MustNewRing(8)
	ms := makeMbufs(10)
	n := 0
	for _, m := range ms {
		if r.Enqueue(m) {
			n++
		}
	}
	if n != 8 {
		t.Fatalf("enqueued %d, want 8 (capacity)", n)
	}
	dst := make([]*Mbuf, 3)
	if got := r.DequeueBurst(dst); got != 3 {
		t.Fatalf("dequeue burst = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		if dst[i] != ms[i] {
			t.Fatalf("burst order violated at %d", i)
		}
	}
	if got := r.DequeueBurst(make([]*Mbuf, 16)); got != 5 {
		t.Errorf("drain burst = %d, want 5", got)
	}
	if got := r.DequeueBurst(nil); got != 0 {
		t.Errorf("empty burst = %d", got)
	}
}

// Property: an SPSC ring passed a random op sequence behaves exactly
// like an unbounded FIFO truncated at capacity.
func TestRingModelEquivalence(t *testing.T) {
	f := func(ops []bool) bool {
		r := MustNewRing(16)
		var model []*Mbuf
		pool := makeMbufs(len(ops) + 1)
		next := 0
		for _, isEnq := range ops {
			if isEnq {
				m := pool[next]
				next++
				ok := r.Enqueue(m)
				modelOK := len(model) < 16
				if ok != modelOK {
					return false
				}
				if ok {
					model = append(model, m)
				}
			} else {
				got := dequeue(r)
				if len(model) == 0 {
					if got != nil {
						return false
					}
				} else {
					if got != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if r.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// SPSC ring under a real producer/consumer pair: every packet arrives
// exactly once, in order.
func TestRingConcurrentSPSC(t *testing.T) {
	r := MustNewRing(64)
	const total = 20000
	ms := makeMbufs(total)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if r.Enqueue(ms[i]) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	seen := 0
	for seen < total {
		m := dequeue(r)
		if m == nil {
			runtime.Gosched()
			continue
		}
		if m != ms[seen] {
			t.Fatalf("out of order at %d", seen)
		}
		seen++
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Errorf("ring not empty: %d", r.Len())
	}
}

func makeMbufs(n int) []*Mbuf {
	out := make([]*Mbuf, n)
	for i := range out {
		out[i] = &Mbuf{}
	}
	return out
}

// dequeue removes one packet through the burst read, nil when empty.
func dequeue(r *Ring) *Mbuf {
	var one [1]*Mbuf
	if r.DequeueBurst(one[:]) == 0 {
		return nil
	}
	return one[0]
}

// MustNewRing is NewRing that panics on error.
func MustNewRing(capacity int) *Ring {
	r, err := NewRing(capacity)
	if err != nil {
		panic(err)
	}
	return r
}
