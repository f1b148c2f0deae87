package replay

import (
	"errors"
	"math"
	"math/rand"
	"sync"
)

// Transition is one (state, action, reward, next state) experience
// tuple, the sample unit of Algorithm 2.
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	Done      bool
}

// ring is the transition store every buffer shares: a ring of at most
// capacity slots whose backing array grows with its contents (doubling,
// never past capacity), so capacity is a bound, not a reservation.
// Until the ring is full next == count == len(data); from then on
// len(data) == capacity and next is the eviction cursor.
type ring struct {
	capacity int
	data     []Transition
	next     int
	count    int
}

// put stores t in the next slot (evicting the oldest transition once
// full) and returns that slot's index.
func (r *ring) put(t Transition) int {
	idx := r.next
	if idx == len(r.data) {
		if idx == cap(r.data) {
			r.data = append(make([]Transition, 0, min(max(2*idx, 16), r.capacity)), r.data...)
		}
		r.data = append(r.data, t)
	} else {
		r.data[idx] = t
	}
	r.next = (idx + 1) % r.capacity
	if r.count < r.capacity {
		r.count++
	}
	return idx
}

// Uniform is a fixed-capacity ring buffer with uniform sampling.
// It is goroutine-safe.
type Uniform struct {
	mu sync.Mutex
	ring
}

// NewUniform builds a buffer holding up to capacity transitions.
func NewUniform(capacity int) (*Uniform, error) {
	if capacity <= 0 {
		return nil, errors.New("replay: capacity must be positive")
	}
	return &Uniform{ring: ring{capacity: capacity}}, nil
}

// Add stores a transition, evicting the oldest when full.
func (u *Uniform) Add(t Transition) {
	u.mu.Lock()
	u.put(t)
	u.mu.Unlock()
}

// Len reports the number of stored transitions.
func (u *Uniform) Len() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.count
}

// SampleInto draws n transitions uniformly with replacement; it
// returns nil only when the buffer is empty. Samples are appended to
// dst (truncated to length zero first), which should have capacity n
// to stay allocation-free.
func (u *Uniform) SampleInto(rng *rand.Rand, n int, dst []Transition) []Transition {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.count == 0 || n <= 0 {
		return nil
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, u.data[rng.Intn(u.count)])
	}
	return dst
}

// sumTree is a complete binary tree whose leaves hold priorities and
// whose internal nodes hold subtree sums, supporting O(log n)
// prefix-sum search. The nodes are allocated by the first set — a
// buffer nobody adds to holds no tree — and at full size from then on:
// leaf positions and the order of the partial sums decide which
// transition a prefix sum finds, so a tree that grew would sample
// differently.
type sumTree struct {
	cap  int       // leaves: the buffer capacity rounded up to a power of two
	tree []float64 // 1-indexed; leaves at [cap, 2cap); nil until the first set
}

func newSumTree(capacity int) sumTree {
	capPow := 1
	for capPow < capacity {
		capPow *= 2
	}
	return sumTree{cap: capPow}
}

func (s *sumTree) set(idx int, p float64) {
	if s.tree == nil {
		s.tree = make([]float64, 2*s.cap)
	}
	i := idx + s.cap
	s.tree[i] = p
	for i >>= 1; i >= 1; i >>= 1 {
		s.tree[i] = s.tree[2*i] + s.tree[2*i+1]
	}
}

// get reads a leaf that was set (every stored slot's has been).
func (s *sumTree) get(idx int) float64 { return s.tree[idx+s.cap] }

func (s *sumTree) total() float64 {
	if s.tree == nil {
		return 0
	}
	return s.tree[1]
}

// find locates the leaf containing prefix sum v. Callers sample only
// from a positive total, so the tree exists.
func (s *sumTree) find(v float64) int {
	i := 1
	for i < s.cap {
		left := s.tree[2*i]
		if v < left {
			i = 2 * i
		} else {
			v -= left
			i = 2*i + 1
		}
	}
	return i - s.cap
}

// Prioritized is the proportional prioritized replay buffer:
// transitions are sampled with probability p_i^α / Σp^α and weighted
// by importance-sampling corrections (β annealed toward 1).
// It is goroutine-safe: Ape-X actors Add concurrently with the
// learner's Sample/UpdatePriorities.
type Prioritized struct {
	mu sync.Mutex
	ring
	tree     sumTree
	alpha    float64
	beta     float64
	betaInc  float64
	eps      float64
	maxPrior float64
}

// NewPrioritized builds a buffer with the standard hyperparameters
// (α controls how strongly priorities skew sampling, β the initial
// importance-sampling correction annealed by betaInc per sample
// call).
func NewPrioritized(capacity int, alpha, beta, betaInc float64) (*Prioritized, error) {
	if capacity <= 0 {
		return nil, errors.New("replay: capacity must be positive")
	}
	if alpha < 0 || beta < 0 || beta > 1 {
		return nil, errors.New("replay: need alpha >= 0 and beta in [0,1]")
	}
	return &Prioritized{
		ring:     ring{capacity: capacity},
		tree:     newSumTree(capacity),
		alpha:    alpha,
		beta:     beta,
		betaInc:  betaInc,
		eps:      1e-4,
		maxPrior: 1,
	}, nil
}

// Len reports the number of stored transitions.
func (p *Prioritized) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// Add stores a transition at maximal priority so every experience is
// replayed at least once (the standard PER bootstrap).
func (p *Prioritized) Add(t Transition) {
	p.mu.Lock()
	p.addLocked(t, p.maxPrior)
	p.mu.Unlock()
}

// AddWithPriority stores a transition with an explicit priority —
// Ape-X actors compute initial priorities locally from their own TD
// estimates so fresh experience competes immediately.
func (p *Prioritized) AddWithPriority(t Transition, priority float64) {
	p.mu.Lock()
	p.addLocked(t, priority)
	p.mu.Unlock()
}

// addLocked stores a transition. Caller holds mu.
func (p *Prioritized) addLocked(t Transition, priority float64) {
	if priority <= 0 || math.IsNaN(priority) {
		priority = p.eps
	}
	if priority > p.maxPrior {
		p.maxPrior = priority
	}
	p.tree.set(p.put(t), math.Pow(priority+p.eps, p.alpha))
}

// AddBatch stores a chunk of transitions under one lock acquire —
// the flush path for per-actor staging buffers, which otherwise pay a
// mutex round-trip per transition. priorities may be nil (every
// transition gets the current maximal priority) or shorter than ts
// (the tail gets maximal priority). The insertion sequence is
// identical to calling AddWithPriority element by element.
func (p *Prioritized) AddBatch(ts []Transition, priorities []float64) {
	p.mu.Lock()
	for i := range ts {
		prio := p.maxPrior
		if i < len(priorities) {
			prio = priorities[i]
		}
		p.addLocked(ts[i], prio)
	}
	p.mu.Unlock()
}

// SampleInto draws n transitions by priority: the samples, their
// buffer indices (for UpdatePriorities) and their normalized
// importance-sampling weights, nil only when the buffer is empty.
// Results are appended to the provided slices (truncated to length
// zero first), which should have capacity n to stay allocation-free.
// The learner's batched update path reuses one set of buffers across
// its whole run.
func (p *Prioritized) SampleInto(rng *rand.Rand, n int, samples []Transition, indices []int, weights []float64) ([]Transition, []int, []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.count == 0 || n <= 0 {
		return nil, nil, nil
	}
	total := p.tree.total()
	if total <= 0 {
		return nil, nil, nil
	}
	samples, indices, weights = samples[:0], indices[:0], weights[:0]
	segment := total / float64(n)
	maxW := 0.0
	for i := 0; i < n; i++ {
		v := (float64(i) + rng.Float64()) * segment
		if v >= total {
			v = total * (1 - 1e-12)
		}
		idx := p.tree.find(v)
		if idx >= p.count { // unfilled leaf (power-of-two padding)
			idx = p.count - 1
		}
		prob := p.tree.get(idx) / total
		if prob <= 0 {
			prob = 1e-12
		}
		w := math.Pow(float64(p.count)*prob, -p.beta)
		samples = append(samples, p.data[idx])
		indices = append(indices, idx)
		weights = append(weights, w)
		if w > maxW {
			maxW = w
		}
	}
	if maxW > 0 {
		for i := range weights {
			weights[i] /= maxW
		}
	}
	p.beta = math.Min(1, p.beta+p.betaInc)
	return samples, indices, weights
}

// UpdatePriorities reassigns priorities (|TD error|) after a learning
// step.
func (p *Prioritized) UpdatePriorities(indices []int, tdErrs []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, idx := range indices {
		if idx < 0 || idx >= p.capacity || i >= len(tdErrs) {
			continue
		}
		prio := math.Abs(tdErrs[i])
		if math.IsNaN(prio) {
			prio = p.eps
		}
		if prio > p.maxPrior {
			p.maxPrior = prio
		}
		p.tree.set(idx, math.Pow(prio+p.eps, p.alpha))
	}
}

// UpdatePrioritiesBatch is UpdatePriorities under its existing single
// lock, named for the batched write-back surface the sharded buffer
// introduces so both buffers satisfy one interface.
func (p *Prioritized) UpdatePrioritiesBatch(indices []int, tdErrs []float64) {
	p.UpdatePriorities(indices, tdErrs)
}

// Beta reports the current importance-sampling exponent.
func (p *Prioritized) Beta() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.beta
}
