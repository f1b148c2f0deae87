package replay

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullTree is the sum tree as it was before it grew with its contents:
// allocated at its full power-of-two size by the first set.
// TestSumTreeWalksLikeFullTree holds the growing tree to it.
type fullTree struct {
	cap  int
	tree []float64
}

func (s *fullTree) set(idx int, p float64) {
	if s.tree == nil {
		s.tree = make([]float64, 2*s.cap)
	}
	i := idx + s.cap
	s.tree[i] = p
	for i >>= 1; i >= 1; i >>= 1 {
		s.tree[i] = s.tree[2*i] + s.tree[2*i+1]
	}
}

func (s *fullTree) get(idx int) float64 {
	if s.tree == nil {
		return 0
	}
	return s.tree[idx+s.cap]
}

func (s *fullTree) total() float64 {
	if s.tree == nil {
		return 0
	}
	return s.tree[1]
}

func (s *fullTree) find(v float64) int {
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

// TestSumTreeWalksLikeFullTree: a tree that grows with its contents
// answers what the full-size tree answers, bit for bit (package doc,
// "Capacity is a bound, not a reservation"). A random script of adds
// (single and batched, through several wrap-arounds of the ring),
// priority write-backs (some +Inf) and snapshot restores (some leaves
// −0, once all of them) runs on one buffer; after every step each
// stripe's leaves are mirrored into a full tree, and the two must agree
// on the bits of total and on find for stratified points, for total
// itself, for the next float above it, for +Inf and for NaN. A leaf
// that changes where the step wrote nothing, or a tree larger than its
// contents need, fails too.
func TestSumTreeWalksLikeFullTree(t *testing.T) {
	for _, c := range []struct{ capacity, stripes int }{
		{1, 1}, {5, 1}, {300, 1}, {512, 1}, {4096, 1}, {300, 4},
	} {
		t.Run(fmt.Sprintf("cap%d/stripes%d", c.capacity, c.stripes), func(t *testing.T) {
			walkLikeFullTree(t, c.capacity, c.stripes)
		})
	}
}

func walkLikeFullTree(t *testing.T, capacity, stripes int) {
	rng := rand.New(rand.NewSource(int64(97*capacity + stripes)))
	fresh := func() *Prioritized {
		p, err := NewSharded(capacity, stripes, 0.6, 0.4, 1e-3, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := fresh()
	full := make([]fullTree, stripes)
	touched := make([][]bool, stripes) // slots the step may have written
	reset := func() {
		for k := range full {
			full[k] = fullTree{cap: p.shards[k].tree.cap}
			touched[k] = make([]bool, p.shards[k].tree.cap)
			for i := range touched[k] {
				touched[k][i] = true
			}
		}
	}
	reset()
	bits := math.Float64bits
	negZeroRoot := false // some check saw a −0 grown root below a +0 full one
	check := func(step string) {
		t.Helper()
		for k := range p.shards {
			sh, f := &p.shards[k], &full[k]
			g := &sh.tree
			if g.cap != f.cap || len(g.tree) != 2*g.n {
				t.Fatalf("%s: stripe %d holds %d nodes for %d leaves of %d", step, k, len(g.tree), g.n, g.cap)
			}
			if want := treeLeaves(sh.count, g.cap); g.n != want {
				t.Fatalf("%s: stripe %d of %d transitions holds %d leaves, want %d", step, k, sh.count, g.n, want)
			}
			for i := 0; i < g.cap; i++ {
				leaf := 0.0
				if i < g.n {
					leaf = g.tree[g.n+i]
				}
				if bits(leaf) == bits(f.get(i)) {
					continue
				}
				if !touched[k][i] {
					t.Fatalf("%s: stripe %d leaf %d changed from %v to %v, and nothing wrote it", step, k, i, f.get(i), leaf)
				}
				f.set(i, leaf)
			}
			clear(touched[k])
			total := f.total()
			if g.n > 0 && g.n < g.cap && math.Signbit(g.tree[1]) && bits(total) == 0 {
				negZeroRoot = true
			}
			if got := g.total(); bits(got) != bits(total) {
				t.Fatalf("%s: stripe %d total %v (%#x), full tree %v (%#x)", step, k, got, bits(got), total, bits(total))
			}
			if f.tree == nil {
				continue // no leaf to find
			}
			const strata = 8
			vs := []float64{total, math.Nextafter(total, math.Inf(1)), math.Inf(1), math.NaN()}
			for i := 0; i < strata; i++ {
				vs = append(vs, (float64(i)+rng.Float64())*(total/strata))
			}
			for _, v := range vs {
				if got, want := g.find(v), f.find(v); got != want {
					t.Fatalf("%s: stripe %d (%d of %d leaves, total %v): find(%v) = %d, full tree %d", step, k, g.n, g.cap, total, v, got, want)
				}
			}
		}
	}
	check("new")

	// next is where the next add lands: its stripe and slot.
	next := func(j int) (int, int) {
		k := int(p.ingest.Load() % uint64(stripes))
		return k, (p.shards[k].next + j) % p.shardCap
	}
	added := 0
	transition := func() Transition { added++; return tr(float64(added)) }
	restores := []int{capacity / 3, 2*capacity + capacity/2}
	negZeroDone := false
	for step := 0; added < max(4*capacity, 64); step++ {
		switch op := rng.Intn(8); {
		case op == 0:
			k, slot := next(0)
			touched[k][slot] = true
			p.Add(transition())
		case op <= 4:
			size := 1 + rng.Intn(9)
			if k, _ := next(0); !negZeroDone && p.shards[k].count < p.shards[k].tree.n {
				size = min(size, p.shards[k].tree.n-p.shards[k].count) // fill the held leaves exactly
			}
			chunk := make([]Transition, size)
			prios := make([]float64, rng.Intn(len(chunk)+1))
			for i := range chunk {
				k, slot := next(i)
				touched[k][slot] = true
				chunk[i] = transition()
			}
			for i := range prios {
				prios[i] = 2 * rng.Float64()
			}
			p.AddBatch(chunk, prios)
		default:
			// Write back to drawn slots or to arbitrary ones; one
			// write-back in eight brings an infinite priority.
			var indices []int
			if p.Len() > 0 && rng.Intn(2) == 0 {
				_, indices, _ = p.SampleInto(rng, 1+rng.Intn(8), nil, nil, nil)
			} else {
				indices = make([]int, 1+rng.Intn(8))
				for i := range indices {
					indices[i] = rng.Intn(stripes * p.shardCap)
				}
			}
			tdErrs := make([]float64, len(indices))
			for i, idx := range indices {
				tdErrs[i] = 4*rng.Float64() - 2
				if rng.Intn(8) == 0 {
					tdErrs[i] = math.Inf(1)
				}
				touched[idx/p.shardCap][idx%p.shardCap] = true
			}
			p.UpdatePrioritiesBatch(indices, tdErrs)
		}
		check(fmt.Sprintf("step %d (%d added)", step, added))
		// Restore once with every leaf −0 as soon as a stripe fills the
		// leaves it holds — the one fill at which its grown root is −0
		// while the full tree's is +0 — and with some leaves −0
		// mid-growth and after the first wrap.
		allNegZero := false
		for k := range p.shards {
			allNegZero = allNegZero || !negZeroDone && p.shards[k].count > 0 && p.shards[k].count == p.shards[k].tree.n
		}
		if allNegZero || len(restores) > 0 && added >= restores[0] {
			if allNegZero {
				negZeroDone = true
			} else {
				restores = restores[1:]
			}
			st := snapshot(t, p)
			negZeroLeaves(st, stripes, rng, allNegZero)
			p = fresh()
			if err := p.LoadState(st, trDim, trDim); err != nil {
				t.Fatal(err)
			}
			reset()
			check(fmt.Sprintf("restore at %d added", added))
		}
	}
	if minTreeLeaves < full[0].cap && !negZeroRoot {
		t.Error("no grown root was −0 below the full tree's +0: the script missed the edge")
	}
}

// treeLeaves is the leaf count a stripe of count transitions holds:
// none when it holds nothing, else the power of two covering count,
// between minTreeLeaves and cap.
func treeLeaves(count, cap int) int {
	if count == 0 {
		return 0
	}
	n := minTreeLeaves
	for n < count {
		n *= 2
	}
	return min(n, cap)
}

// negZeroLeaves rewrites the leaves of snapshot st (tr widths) to −0:
// every one when all is set, else about one in four and each +Inf one
// (a snapshot holds only finite leaves; ReadRows refuses the rest). It
// resets every stripe's maximal priority to 1, so that adds after the
// restore bring finite leaves again.
func negZeroLeaves(st []byte, stripes int, rng *rand.Rand, all bool) {
	le := binary.LittleEndian
	negZero := math.Float64bits(math.Copysign(0, -1))
	for k := 0; k < stripes; k++ {
		le.PutUint64(st[snapshotHeaderLen+stripeHeaderLen*k+16:], math.Float64bits(1))
	}
	width := RowLen(trDim, trDim)
	for row := st[snapshotHeaderLen+stripeHeaderLen*stripes:]; len(row) >= width; row = row[width:] {
		if all || rng.Intn(4) == 0 || math.IsInf(math.Float64frombits(le.Uint64(row)), 1) {
			le.PutUint64(row, negZero)
		}
	}
}
