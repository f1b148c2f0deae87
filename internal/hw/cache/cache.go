package cache

import "errors"

// Config sizes the cache model.
type Config struct {
	// Ways is the number of LLC ways (20 on the testbed part).
	Ways int
	// WayBytes is the capacity of one way (1 MiB on the testbed part).
	WayBytes int64
	// DDIOWays is how many of the top ways DDIO claims (Intel defaults
	// to 10% of the LLC: 2 ways here).
	DDIOWays int
	// ColdMissRate is the floor miss rate even when the working set
	// fits: compulsory misses on first-touch packet data.
	ColdMissRate float64
}

// XeonE5v4 returns the testbed LLC: 20 × 1 MiB ways, 2 DDIO ways,
// 2% compulsory misses.
func XeonE5v4() Config {
	return Config{Ways: 20, WayBytes: 1 << 20, DDIOWays: 2, ColdMissRate: 0.02}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Ways <= 0:
		return errors.New("cache: need at least one way")
	case c.WayBytes <= 0:
		return errors.New("cache: way size must be positive")
	case c.DDIOWays < 0 || c.DDIOWays >= c.Ways:
		return errors.New("cache: DDIO ways must be in [0, ways)")
	case c.ColdMissRate < 0 || c.ColdMissRate >= 1:
		return errors.New("cache: cold miss rate must be in [0, 1)")
	}
	return nil
}

// TotalBytes reports the full LLC capacity.
func (c Config) TotalBytes() int64 { return int64(c.Ways) * c.WayBytes }

// DDIOBytes reports the capacity of the DDIO partition.
func (c Config) DDIOBytes() int64 { return int64(c.DDIOWays) * c.WayBytes }

// SharedBytes reports LLC capacity available to CLOS masks (total
// minus the DDIO reservation).
func (c Config) SharedBytes() int64 { return c.TotalBytes() - c.DDIOBytes() }

// MissRate estimates the LLC miss rate for a working set of
// `workingSet` bytes given `allocated` bytes of effective cache, with
// compulsory floor `cold`. When the working set fits, only cold
// misses remain; beyond that the uncached fraction misses:
//
//	m = cold + (1 − cold) · max(0, 1 − allocated/workingSet)
//
// This is the standard fully-associative LRU hit-ratio bound and
// reproduces the knee-then-degrade shape of paper Figure 1.
func MissRate(workingSet, allocated int64, cold float64) float64 {
	if cold < 0 {
		cold = 0
	}
	if cold > 1 {
		cold = 1
	}
	if workingSet <= 0 {
		return cold
	}
	if allocated >= workingSet {
		return cold
	}
	if allocated < 0 {
		allocated = 0
	}
	uncached := 1 - float64(allocated)/float64(workingSet)
	return cold + (1-cold)*uncached
}

// DDIOOverflowEvictions estimates the extra eviction pressure (as an
// additive miss-rate term) caused by a DMA buffer footprint that
// exceeds the DDIO partition: the spill writes allocate into the
// shared ways and evict NF state. The term saturates at `maxTerm`.
func DDIOOverflowEvictions(dmaBytes, ddioBytes int64, maxTerm float64) float64 {
	if dmaBytes <= ddioBytes || ddioBytes < 0 {
		return 0
	}
	spill := float64(dmaBytes-ddioBytes) / float64(dmaBytes)
	return maxTerm * spill
}
