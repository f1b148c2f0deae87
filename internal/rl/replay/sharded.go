package replay

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Sharded is the lock-striped prioritized replay buffer behind the
// parallel Ape-X trainer: the single global mutex of Prioritized —
// which every actor and the learner contend on — is split into K
// shards, each with its own sum tree, data ring and RNG stream.
// Ingest takes one shard lock per chunk (AddBatch), sampling is
// stratified across shards proportionally to their priority mass, and
// priority write-back relocks only on shard boundaries
// (UpdatePrioritiesBatch), so no path ever serializes the whole
// buffer.
//
// Sampling is distributionally equivalent to the single-tree buffer —
// each transition is still drawn with probability p^α/Σp^α — but the
// RNG streams differ, so it is used by the non-deterministic parallel
// trainer only; the deterministic round-robin mode keeps Prioritized.
type Sharded struct {
	shards   []shard
	shardCap int
	alpha    float64
	eps      float64
	betaInc  float64

	count  atomic.Int64  // total stored transitions across shards
	ingest atomic.Uint64 // round-robin chunk cursor

	// sampleMu serializes samplers: it owns beta annealing and the
	// per-shard totals snapshot scratch, which keeps SampleInto
	// allocation-free without a per-call make.
	sampleMu sync.Mutex
	beta     float64
	totals   []float64
}

// shard is one lock stripe: a private sum tree, data ring and RNG
// stream. The trailing pad keeps one shard's hot state (mutex, ring
// cursor) from false-sharing a cache line with its neighbor.
type shard struct {
	mu sync.Mutex
	ring
	tree     sumTree
	maxPrior float64
	rng      *rand.Rand
	_        [64]byte
}

// NewSharded builds a buffer of `capacity` total transitions striped
// over `shards` locks with the standard PER hyperparameters. Seed
// derives the per-shard RNG streams.
func NewSharded(capacity, shards int, alpha, beta, betaInc float64, seed int64) (*Sharded, error) {
	if capacity <= 0 {
		return nil, errors.New("replay: capacity must be positive")
	}
	if shards <= 0 {
		return nil, errors.New("replay: shard count must be positive")
	}
	if alpha < 0 || beta < 0 || beta > 1 {
		return nil, errors.New("replay: need alpha >= 0 and beta in [0,1]")
	}
	if shards > capacity {
		shards = capacity
	}
	shardCap := (capacity + shards - 1) / shards
	s := &Sharded{
		shards:   make([]shard, shards),
		shardCap: shardCap,
		alpha:    alpha,
		eps:      1e-4,
		betaInc:  betaInc,
		beta:     beta,
		totals:   make([]float64, shards),
	}
	for k := range s.shards {
		sh := &s.shards[k]
		sh.ring = ring{capacity: shardCap}
		sh.tree = newSumTree(shardCap)
		sh.maxPrior = 1
		sh.rng = rand.New(rand.NewSource(seed + int64(k)*0x9E37 + 1))
	}
	return s, nil
}

// NumShards reports the stripe count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Len reports the number of stored transitions (lock-free).
func (s *Sharded) Len() int { return int(s.count.Load()) }

// Beta reports the current importance-sampling exponent.
func (s *Sharded) Beta() float64 {
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	return s.beta
}

// addLocked stores one transition in sh. Caller holds sh.mu. Reports
// whether the shard grew (false when an old transition was evicted).
func (s *Sharded) addLocked(sh *shard, t Transition, priority float64) bool {
	if priority <= 0 || math.IsNaN(priority) {
		priority = s.eps
	}
	if priority > sh.maxPrior {
		sh.maxPrior = priority
	}
	before := sh.count
	sh.tree.set(sh.put(t), math.Pow(priority+s.eps, s.alpha))
	return sh.count > before
}

// nextShard advances the round-robin ingest cursor.
func (s *Sharded) nextShard() *shard {
	return &s.shards[int((s.ingest.Add(1)-1)%uint64(len(s.shards)))]
}

// Add stores a transition at the target shard's maximal priority (the
// standard PER bootstrap).
func (s *Sharded) Add(t Transition) {
	sh := s.nextShard()
	sh.mu.Lock()
	grew := s.addLocked(sh, t, sh.maxPrior)
	sh.mu.Unlock()
	if grew {
		s.count.Add(1)
	}
}

// AddWithPriority stores a transition with an explicit priority.
func (s *Sharded) AddWithPriority(t Transition, priority float64) {
	sh := s.nextShard()
	sh.mu.Lock()
	grew := s.addLocked(sh, t, priority)
	sh.mu.Unlock()
	if grew {
		s.count.Add(1)
	}
}

// AddBatch ingests a chunk of transitions under ONE shard lock
// acquire — the flush path for per-actor staging buffers. priorities
// may be nil (maximal priority) or shorter than ts (the tail gets
// maximal priority). Chunks rotate round-robin across shards so load
// stays balanced.
func (s *Sharded) AddBatch(ts []Transition, priorities []float64) {
	if len(ts) == 0 {
		return
	}
	sh := s.nextShard()
	grew := 0
	sh.mu.Lock()
	for i := range ts {
		p := sh.maxPrior
		if i < len(priorities) {
			p = priorities[i]
		}
		if s.addLocked(sh, ts[i], p) {
			grew++
		}
	}
	sh.mu.Unlock()
	if grew > 0 {
		s.count.Add(int64(grew))
	}
}

// SampleInto draws n transitions by priority, stratified across
// shards: the concatenated priority mass is divided into n equal
// strata and each stratum is resolved inside the shard it lands in,
// using that shard's private RNG stream (the rng argument is unused;
// it exists to match Prioritized.SampleInto). Results are appended to
// the provided slices (truncated to length zero first). Returned
// indices are global — shard*shardCap+local — for
// UpdatePrioritiesBatch.
func (s *Sharded) SampleInto(_ *rand.Rand, n int, samples []Transition, indices []int, weights []float64) ([]Transition, []int, []float64) {
	if n <= 0 {
		return nil, nil, nil
	}
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()

	// Snapshot per-shard priority mass. Concurrent ingest can shift
	// the masses while we sample, but only overwrites and appends
	// happen (never removals), so every index sampled against the
	// snapshot stays valid.
	total := 0.0
	lastPos := -1
	for k := range s.shards {
		sh := &s.shards[k]
		sh.mu.Lock()
		s.totals[k] = sh.tree.total()
		sh.mu.Unlock()
		total += s.totals[k]
		if s.totals[k] > 0 {
			lastPos = k
		}
	}
	N := int(s.count.Load())
	if N == 0 || total <= 0 || lastPos < 0 {
		return nil, nil, nil
	}

	samples, indices, weights = samples[:0], indices[:0], weights[:0]
	segment := total / float64(n)
	beta := s.beta
	maxW := 0.0
	i := 0
	off := 0.0
	// pending carries a draw whose stratum straddles a shard boundary
	// into the shard that actually contains it — the draw stays
	// uniform over its stratum, so boundary leaves are not biased.
	pending := math.NaN()
	for k := 0; k <= lastPos && i < n; k++ {
		tk := s.totals[k]
		if tk <= 0 {
			continue
		}
		hi := off + tk
		final := k == lastPos
		if !final && math.IsNaN(pending) && float64(i)*segment >= hi {
			off = hi
			continue // no stratum touches this shard
		}
		sh := &s.shards[k]
		sh.mu.Lock()
	strata:
		for i < n {
			var v float64
			switch {
			case !math.IsNaN(pending):
				v = pending
				pending = math.NaN()
			case final || float64(i)*segment < hi:
				v = (float64(i) + sh.rng.Float64()) * segment
			default:
				break strata // stratum starts in a later shard
			}
			if v >= hi {
				if !final {
					pending = v // resolves in the shard containing v
					break strata
				}
				v = off + tk*(1-1e-12) // fp edge on the last shard
			}
			if v < off {
				v = off // fp edge at the left boundary
			}
			idx := sh.tree.find(v - off)
			if idx >= sh.count { // unfilled leaf (power-of-two padding)
				idx = sh.count - 1
			}
			prob := sh.tree.get(idx) / total
			if prob <= 0 {
				prob = 1e-12
			}
			w := math.Pow(float64(N)*prob, -beta)
			samples = append(samples, sh.data[idx])
			indices = append(indices, k*s.shardCap+idx)
			weights = append(weights, w)
			if w > maxW {
				maxW = w
			}
			i++
		}
		sh.mu.Unlock()
		off = hi
	}
	if maxW > 0 {
		for j := range weights {
			weights[j] /= maxW
		}
	}
	s.beta = math.Min(1, s.beta+s.betaInc)
	return samples, indices, weights
}

// UpdatePrioritiesBatch reassigns priorities (|TD error|) after a
// learning step. Stratified sampling returns indices grouped by
// shard, so the write-back takes one lock acquire per shard touched:
// the lock is only dropped and retaken when the shard changes.
func (s *Sharded) UpdatePrioritiesBatch(indices []int, tdErrs []float64) {
	limit := len(s.shards) * s.shardCap
	cur := -1
	var sh *shard
	for i, idx := range indices {
		if i >= len(tdErrs) {
			break
		}
		if idx < 0 || idx >= limit {
			continue
		}
		k := idx / s.shardCap
		if k != cur {
			if sh != nil {
				sh.mu.Unlock()
			}
			cur, sh = k, &s.shards[k]
			sh.mu.Lock()
		}
		local := idx - k*s.shardCap
		if local >= sh.count {
			continue
		}
		prio := math.Abs(tdErrs[i])
		if math.IsNaN(prio) {
			prio = s.eps
		}
		if prio > sh.maxPrior {
			sh.maxPrior = prio
		}
		sh.tree.set(local, math.Pow(prio+s.eps, s.alpha))
	}
	if sh != nil {
		sh.mu.Unlock()
	}
}
