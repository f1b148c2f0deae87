package cache

import (
	"math"
	"testing"
	"testing/quick"
)

func TestXeonE5v4Config(t *testing.T) {
	cfg := XeonE5v4()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("testbed config invalid: %v", err)
	}
	if cfg.TotalBytes() != 20<<20 {
		t.Errorf("total = %d, want 20 MiB", cfg.TotalBytes())
	}
	if cfg.DDIOBytes() != 2<<20 {
		t.Errorf("DDIO = %d, want 2 MiB (10%%)", cfg.DDIOBytes())
	}
	if cfg.SharedBytes() != 18<<20 {
		t.Errorf("shared = %d, want 18 MiB", cfg.SharedBytes())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Ways: 0, WayBytes: 1, DDIOWays: 0},
		{Ways: 4, WayBytes: 0, DDIOWays: 0},
		{Ways: 4, WayBytes: 1, DDIOWays: 4},
		{Ways: 4, WayBytes: 1, DDIOWays: -1},
		{Ways: 4, WayBytes: 1, DDIOWays: 0, ColdMissRate: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestMissRateShape(t *testing.T) {
	const meg = int64(1 << 20)
	// Fits: only cold misses.
	if m := MissRate(2*meg, 4*meg, 0.02); m != 0.02 {
		t.Errorf("fitting working set miss = %v, want 0.02", m)
	}
	// Double the cache: half the data uncached.
	m := MissRate(8*meg, 4*meg, 0.0)
	if math.Abs(m-0.5) > 1e-9 {
		t.Errorf("half-cached miss = %v, want 0.5", m)
	}
	// Zero allocation: everything misses beyond cold floor.
	if m := MissRate(meg, 0, 0.02); math.Abs(m-1.0) > 1e-9 {
		t.Errorf("no-cache miss = %v, want 1", m)
	}
	// Degenerate working set.
	if m := MissRate(0, meg, 0.02); m != 0.02 {
		t.Errorf("empty working set = %v, want cold", m)
	}
}

// Property: miss rate is within [cold, 1], monotone non-increasing in
// allocation and non-decreasing in working set.
func TestMissRateMonotone(t *testing.T) {
	f := func(wsRaw, allocRaw uint32, coldRaw float64) bool {
		ws := int64(wsRaw)
		alloc := int64(allocRaw)
		cold := math.Abs(math.Mod(coldRaw, 1))
		if math.IsNaN(cold) {
			cold = 0
		}
		m := MissRate(ws, alloc, cold)
		if m < cold-1e-12 || m > 1+1e-12 {
			return false
		}
		mMoreCache := MissRate(ws, alloc+1<<16, cold)
		mMoreWork := MissRate(ws+1<<16, alloc, cold)
		return mMoreCache <= m+1e-12 && mMoreWork >= m-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestDDIOOverflow(t *testing.T) {
	const meg = int64(1 << 20)
	if e := DDIOOverflowEvictions(meg, 2*meg, 0.3); e != 0 {
		t.Errorf("fitting DMA buffer evictions = %v, want 0", e)
	}
	// 4 MiB buffer on 2 MiB DDIO: half spills.
	e := DDIOOverflowEvictions(4*meg, 2*meg, 0.3)
	if math.Abs(e-0.15) > 1e-9 {
		t.Errorf("spill evictions = %v, want 0.15", e)
	}
	// Saturation: huge buffer approaches maxTerm.
	e = DDIOOverflowEvictions(1000*meg, 2*meg, 0.3)
	if e <= 0.29 || e > 0.3 {
		t.Errorf("saturated evictions = %v, want ≈0.3", e)
	}
}
