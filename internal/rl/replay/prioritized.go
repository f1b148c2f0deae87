package replay

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Prioritized is the proportional prioritized replay buffer:
// transitions are sampled with probability p_i^α / Σp^α and weighted
// by importance-sampling corrections (β annealed toward 1). Its
// capacity is striped over K shards, each a lock with its own sum tree
// and data ring (package doc, "One buffer, K stripes"). Ingest takes
// one shard lock per chunk (AddBatch), sampling is stratified across
// shards proportionally to their priority mass, and priority write-back
// relocks only on shard boundaries (UpdatePrioritiesBatch), so no path
// ever serializes the whole buffer. It is goroutine-safe: Ape-X actors
// add concurrently with the learner's sampling and write-backs.
type Prioritized struct {
	shards   []shard
	shardCap int
	alpha    float64
	eps      float64
	betaInc  float64

	count  atomic.Int64  // total stored transitions across shards
	ingest atomic.Uint64 // round-robin chunk cursor

	// sampleMu serializes samplers: it owns beta annealing and every
	// shard's mass snapshot.
	sampleMu sync.Mutex
	beta     float64
}

// shard is one lock stripe: a private sum tree and data ring. The
// trailing pad keeps one shard's hot state (mutex, ring cursor) from
// false-sharing a cache line with its neighbor.
type shard struct {
	mu sync.Mutex
	ring
	tree     sumTree
	maxPrior float64
	// mass is the sampler's snapshot of tree.total(), guarded by
	// sampleMu rather than mu.
	mass float64
	_    [64]byte
}

// NewPrioritized builds a one-shard buffer with the standard
// hyperparameters (α controls how strongly priorities skew sampling, β
// the initial importance-sampling correction annealed by betaInc per
// sample call) — the buffer of every agent until a concurrent trainer
// installs a striped one.
func NewPrioritized(capacity int, alpha, beta, betaInc float64) (*Prioritized, error) {
	return NewSharded(capacity, 1, alpha, beta, betaInc, 0)
}

// NewSharded builds a buffer of capacity total transitions striped
// over shards locks (clamped to capacity), with the hyperparameters of
// NewPrioritized. seed is unused: sampling draws from the caller's RNG.
func NewSharded(capacity, shards int, alpha, beta, betaInc float64, seed int64) (*Prioritized, error) {
	if capacity <= 0 {
		return nil, errors.New("replay: capacity must be positive")
	}
	if shards <= 0 {
		return nil, errors.New("replay: shard count must be positive")
	}
	if alpha < 0 || beta < 0 || beta > 1 {
		return nil, errors.New("replay: need alpha >= 0 and beta in [0,1]")
	}
	shards = min(shards, capacity)
	shardCap := (capacity + shards - 1) / shards
	p := &Prioritized{
		shards:   make([]shard, shards),
		shardCap: shardCap,
		alpha:    alpha,
		eps:      1e-4,
		betaInc:  betaInc,
		beta:     beta,
	}
	for k := range p.shards {
		sh := &p.shards[k]
		sh.ring = ring{capacity: shardCap}
		sh.tree = newSumTree(shardCap)
		sh.maxPrior = 1
	}
	return p, nil
}

// NumShards reports the stripe count.
func (p *Prioritized) NumShards() int { return len(p.shards) }

// Len reports the number of stored transitions (lock-free).
func (p *Prioritized) Len() int { return int(p.count.Load()) }

// Release empties the buffer in place and lets go of its storage:
// every stripe's ring and sum tree go back to holding nothing, as in a
// new buffer. It keeps what a snapshot records besides the rows — β,
// the ingest cursor and each stripe's maximal priority — so a released
// buffer is the one LoadState restores from its own snapshot, and once
// refilled it samples as that one does. It allocates nothing. A
// transition added while it runs is either released with the rest or
// kept, and counted accordingly.
func (p *Prioritized) Release() {
	p.sampleMu.Lock()
	defer p.sampleMu.Unlock()
	for k := range p.shards {
		sh := &p.shards[k]
		sh.mu.Lock()
		p.count.Add(-int64(sh.count))
		sh.release()
		sh.tree = sumTree{cap: sh.tree.cap}
		sh.mass = 0
		sh.mu.Unlock()
	}
}

// addLocked stores one transition in sh. Caller holds sh.mu. Reports
// whether the shard grew (false when an old transition was evicted).
func (p *Prioritized) addLocked(sh *shard, t Transition, priority float64) bool {
	if priority <= 0 || math.IsNaN(priority) {
		priority = p.eps
	}
	if priority > sh.maxPrior {
		sh.maxPrior = priority
	}
	before := sh.count
	sh.tree.set(sh.put(t), math.Pow(priority+p.eps, p.alpha))
	return sh.count > before
}

// nextShard advances the round-robin ingest cursor.
func (p *Prioritized) nextShard() *shard {
	return &p.shards[int((p.ingest.Add(1)-1)%uint64(len(p.shards)))]
}

// Add stores a transition at the target shard's maximal priority (the
// standard PER bootstrap: every experience is replayed at least once).
func (p *Prioritized) Add(t Transition) {
	sh := p.nextShard()
	sh.mu.Lock()
	grew := p.addLocked(sh, t, sh.maxPrior)
	sh.mu.Unlock()
	if grew {
		p.count.Add(1)
	}
}

// AddBatch ingests a chunk of transitions under ONE shard lock
// acquire — the flush path for per-actor staging buffers, which Ape-X
// actors fill with locally computed priorities so fresh experience
// competes immediately. priorities may be nil (maximal priority) or
// shorter than ts (the tail gets maximal priority). Chunks rotate
// round-robin across shards so load stays balanced.
func (p *Prioritized) AddBatch(ts []Transition, priorities []float64) {
	if len(ts) == 0 {
		return
	}
	sh := p.nextShard()
	grew := 0
	sh.mu.Lock()
	for i := range ts {
		prio := sh.maxPrior
		if i < len(priorities) {
			prio = priorities[i]
		}
		if p.addLocked(sh, ts[i], prio) {
			grew++
		}
	}
	sh.mu.Unlock()
	if grew > 0 {
		p.count.Add(int64(grew))
	}
}

// SampleInto draws n transitions by priority: the samples, their
// buffer indices (for UpdatePrioritiesBatch) and their normalized
// importance-sampling weights, nil only when the buffer is empty. The
// concatenated priority mass of the shards is divided into n equal
// strata and stratum i draws one point uniformly from it with rng, so
// the points ascend and the walk visits each shard at most once, under
// its lock. Returned indices are global — shard*shardCap+local. Results
// are appended to the provided slices (truncated to length zero
// first), which should have capacity n to stay allocation-free.
func (p *Prioritized) SampleInto(rng *rand.Rand, n int, samples []Transition, indices []int, weights []float64) ([]Transition, []int, []float64) {
	if n <= 0 {
		return nil, nil, nil
	}
	p.sampleMu.Lock()
	defer p.sampleMu.Unlock()

	// Snapshot per-shard priority mass. Concurrent ingest can shift
	// the masses while we sample, but only overwrites and appends
	// happen (never removals), so every index sampled against the
	// snapshot stays valid.
	total := 0.0
	last := -1 // the last shard holding mass
	for k := range p.shards {
		sh := &p.shards[k]
		sh.mu.Lock()
		sh.mass = sh.tree.total()
		sh.mu.Unlock()
		total += sh.mass
		if sh.mass > 0 {
			last = k
		}
	}
	// An add counts its transition after unlocking its stripe, so a
	// Release that ran in between leaves the count short, below zero at
	// worst, until that add's count lands.
	N := float64(p.count.Load())
	if N <= 0 || total <= 0 {
		return nil, nil, nil
	}

	samples, indices, weights = samples[:0], indices[:0], weights[:0]
	segment := total / float64(n)
	beta := p.beta
	maxW := 0.0
	k, off := 0, 0.0 // the shard the walk is in and the mass before it
	sh := &p.shards[0]
	sh.mu.Lock()
	for i := 0; i < n; i++ {
		v := (float64(i) + rng.Float64()) * segment
		// Only a shard holding mass is drawn from, whatever v is: 0·∞
		// is NaN once an infinite priority makes the segment infinite.
		for k < last && (sh.mass == 0 || v >= off+sh.mass) {
			sh.mu.Unlock()
			off += sh.mass
			k++
			sh = &p.shards[k]
			sh.mu.Lock()
		}
		v -= off
		if v >= sh.mass { // fp edge at the end of the mass
			v = sh.mass * (1 - 1e-12)
		}
		idx := sh.tree.find(v)
		if idx >= sh.count { // unfilled leaf (power-of-two padding)
			idx = sh.count - 1
		}
		prob := sh.tree.get(idx) / total
		if prob <= 0 {
			prob = 1e-12
		}
		w := math.Pow(N*prob, -beta)
		samples = append(samples, sh.data[idx])
		indices = append(indices, k*p.shardCap+idx)
		weights = append(weights, w)
		if w > maxW {
			maxW = w
		}
	}
	sh.mu.Unlock()
	if maxW > 0 {
		for j := range weights {
			weights[j] /= maxW
		}
	}
	p.beta = math.Min(1, p.beta+p.betaInc)
	return samples, indices, weights
}

// UpdatePrioritiesBatch reassigns priorities (|TD error|) after a
// learning step. Stratified sampling returns indices grouped by
// shard, so the write-back takes one lock acquire per shard touched:
// the lock is only dropped and retaken when the shard changes.
func (p *Prioritized) UpdatePrioritiesBatch(indices []int, tdErrs []float64) {
	limit := len(p.shards) * p.shardCap
	cur := -1
	var sh *shard
	for i, idx := range indices {
		if i >= len(tdErrs) {
			break
		}
		if idx < 0 || idx >= limit {
			continue
		}
		k := idx / p.shardCap
		if k != cur {
			if sh != nil {
				sh.mu.Unlock()
			}
			cur, sh = k, &p.shards[k]
			sh.mu.Lock()
		}
		local := idx - k*p.shardCap
		if local >= sh.count {
			continue
		}
		prio := math.Abs(tdErrs[i])
		if math.IsNaN(prio) {
			prio = p.eps
		}
		if prio > sh.maxPrior {
			sh.maxPrior = prio
		}
		sh.tree.set(local, math.Pow(prio+p.eps, p.alpha))
	}
	if sh != nil {
		sh.mu.Unlock()
	}
}
