package dma

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSlots(t *testing.T) {
	b := Buffer{Bytes: 2 << 20, DescriptorBytes: 16, FrameBytes: 2048}
	want := int64(2<<20) / 2064
	if got := b.Slots(); got != want {
		t.Errorf("slots = %d, want %d", got, want)
	}
}

func TestWithBytesFloor(t *testing.T) {
	b := Default().WithBytes(1) // below one slot
	if b.Slots() < 1 {
		t.Errorf("resized buffer has %d slots, want >= 1", b.Slots())
	}
	b = Default().WithBytes(40 << 20)
	if b.Bytes != 40<<20 {
		t.Errorf("bytes = %d, want 40 MiB", b.Bytes)
	}
}

func TestDropProbabilityRegimes(t *testing.T) {
	b := Default()
	// Deeply underloaded: essentially no drops.
	if p := b.DropProbability(1e5, 1e6); p > 1e-9 {
		t.Errorf("underloaded drop = %v, want ~0", p)
	}
	// Critically loaded: 1/(k+1).
	k := float64(b.Slots())
	if p := b.DropProbability(1e6, 1e6); math.Abs(p-1/(k+1)) > 1e-9 {
		t.Errorf("critical drop = %v, want %v", p, 1/(k+1))
	}
	// Overloaded 2×: half the packets must drop.
	if p := b.DropProbability(2e6, 1e6); math.Abs(p-0.5) > 0.01 {
		t.Errorf("2x overload drop = %v, want ~0.5", p)
	}
	// Degenerate cases.
	if p := b.DropProbability(1e6, 0); p != 1 {
		t.Errorf("zero drain drop = %v, want 1", p)
	}
	tiny := Buffer{Bytes: 1, DescriptorBytes: 16, FrameBytes: 2048}
	if p := tiny.DropProbability(1, 10); p != 1 {
		t.Errorf("zero-slot drop = %v, want 1", p)
	}
}

// Property: drop probability is in [0,1] and non-decreasing in load.
func TestDropProbabilityMonotone(t *testing.T) {
	b := Default().WithBytes(64 << 10) // small buffer so drops are visible
	f := func(a1, a2 float64) bool {
		x := math.Abs(math.Mod(a1, 3e6))
		y := math.Abs(math.Mod(a2, 3e6))
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		pLow := b.DropProbability(x, 1e6)
		pHigh := b.DropProbability(y, 1e6)
		inRange := pLow >= 0 && pLow <= 1 && pHigh >= 0 && pHigh <= 1
		return inRange && pHigh >= pLow-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a bigger buffer never drops more under identical load.
func TestBiggerBufferNeverWorse(t *testing.T) {
	f := func(sizeRaw uint32, loadRaw float64) bool {
		size := int64(sizeRaw%(8<<20)) + 4096
		load := math.Abs(math.Mod(loadRaw, 3e6))
		if math.IsNaN(load) {
			return true
		}
		small := Default().WithBytes(size)
		big := Default().WithBytes(size * 2)
		return big.DropProbability(load, 1e6) <= small.DropProbability(load, 1e6)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
