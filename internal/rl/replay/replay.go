package replay

import (
	"errors"
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

// release empties the ring and lets go of its backing array.
func (r *ring) release() { r.data, r.next, r.count = nil, 0, 0 }

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

// Release empties the buffer in place and lets go of its storage, as
// in a new buffer. It allocates nothing.
func (u *Uniform) Release() {
	u.mu.Lock()
	u.release()
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
// prefix-sum search. Like the ring it grows with its contents: it holds
// n leaves, a power of two that is 0 until the first set and doubles
// (from minTreeLeaves, never past cap) when a set lands beyond it. What
// a caller observes — total, and the leaf find picks — is the full
// cap-leaf tree's, bit for bit; the package doc, "Capacity is a bound,
// not a reservation", has the argument and the one edge it needs.
type sumTree struct {
	cap  int       // the full tree's leaves: the capacity rounded up to a power of two
	n    int       // leaves held: 0, or a power of two in [min(minTreeLeaves, cap), cap]
	tree []float64 // 1-indexed; leaves at [n, 2n); nil until the first set
}

// minTreeLeaves is the leaf count a tree starts at.
const minTreeLeaves = 16

func newSumTree(capacity int) sumTree {
	capPow := 1
	for capPow < capacity {
		capPow *= 2
	}
	return sumTree{cap: capPow}
}

// grow makes room for leaves [0, leaves): it doubles n until it covers
// them, copies the leaves and recomputes every internal node bottom-up
// as left + right, as set does on each node it passes.
func (s *sumTree) grow(leaves int) {
	n := max(s.n, minTreeLeaves)
	for n < leaves {
		n *= 2
	}
	n = min(n, s.cap)
	if n == s.n {
		return
	}
	tree := make([]float64, 2*n)
	copy(tree[n:], s.tree[s.n:])
	for i := n - 1; i >= 1; i-- {
		tree[i] = tree[2*i] + tree[2*i+1]
	}
	s.n, s.tree = n, tree
}

func (s *sumTree) set(idx int, p float64) {
	if idx >= s.n {
		s.grow(idx + 1)
	}
	i := idx + s.n
	s.tree[i] = p
	for i >>= 1; i >= 1; i >>= 1 {
		s.tree[i] = s.tree[2*i] + s.tree[2*i+1]
	}
}

// get reads a leaf that was set (every stored slot's has been).
func (s *sumTree) get(idx int) float64 { return s.tree[idx+s.n] }

func (s *sumTree) total() float64 {
	switch {
	case s.n == 0:
		return 0
	case s.n < s.cap:
		// The full tree's root: each node above this one adds its +0
		// padding, which turns a −0 sum into +0.
		return s.tree[1] + 0
	}
	return s.tree[1]
}

// find locates the leaf containing prefix sum v. Callers sample only
// from a positive total, so the tree exists. A v the held leaves do not
// cover (+Inf, NaN, or v ≥ total) is where the full tree walks into its
// zero padding, which ends at its last leaf.
func (s *sumTree) find(v float64) int {
	if s.n < s.cap && !(v < s.tree[1]) {
		return s.cap - 1
	}
	i := 1
	for i < s.n {
		left := s.tree[2*i]
		if v < left {
			i = 2 * i
		} else {
			v -= left
			i = 2*i + 1
		}
	}
	return i - s.n
}
