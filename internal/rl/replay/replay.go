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
