package placement

import (
	"errors"
	"fmt"
	"sort"
)

// ErrInfeasible reports a placement instance that cannot be packed:
// some chain exceeds every node's capacity, or no node subset admits
// a feasible assignment. Callers test for it with errors.Is.
var ErrInfeasible = errors.New("placement: infeasible")

// ChainDemand is one service chain's resource footprint.
type ChainDemand struct {
	Name string
	// Cores is the CPU demand in cores.
	Cores float64
	// LLCBytes is the cache working set.
	LLCBytes int64
	// FlowPPS is the chain's offered packet rate.
	FlowPPS float64
}

// NodeCapacity bounds one host.
type NodeCapacity struct {
	Cores    float64
	LLCBytes int64
}

// Affinity is the packet rate two chains exchange (a flow path that
// traverses both): keeping them co-located keeps those packets in
// the shared LLC.
type Affinity struct {
	A, B string
	PPS  float64
}

// Problem is a placement instance. Two node descriptions are
// accepted: the homogeneous form (Node × MaxNodes, the original
// contract) and the heterogeneous form (Nodes, one capacity per
// host — the cluster topology's view). When Nodes is non-empty it is
// authoritative and Node/MaxNodes are ignored.
type Problem struct {
	Chains     []ChainDemand
	Node       NodeCapacity
	MaxNodes   int
	Nodes      []NodeCapacity
	Affinities []Affinity
}

// capacities resolves the per-node capacity list.
func (p *Problem) capacities() []NodeCapacity {
	if len(p.Nodes) > 0 {
		return p.Nodes
	}
	caps := make([]NodeCapacity, p.MaxNodes)
	for i := range caps {
		caps[i] = p.Node
	}
	return caps
}

// Validate reports whether the instance is well formed. A chain that
// exceeds every node's capacity makes the whole instance infeasible
// by construction; that case reports an error wrapping ErrInfeasible.
func (p *Problem) Validate() error {
	if len(p.Chains) == 0 {
		return errors.New("placement: no chains")
	}
	if len(p.Nodes) > 0 {
		for i, n := range p.Nodes {
			if n.Cores <= 0 || n.LLCBytes <= 0 {
				return fmt.Errorf("placement: node %d capacity must be positive", i)
			}
		}
	} else {
		if p.Node.Cores <= 0 || p.Node.LLCBytes <= 0 {
			return errors.New("placement: node capacity must be positive")
		}
		if p.MaxNodes <= 0 {
			return errors.New("placement: need at least one node")
		}
	}
	caps := p.capacities()
	seen := map[string]bool{}
	for i, c := range p.Chains {
		if c.Name == "" {
			return fmt.Errorf("placement: chain %d unnamed", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("placement: duplicate chain %q", c.Name)
		}
		seen[c.Name] = true
		if c.Cores <= 0 || c.LLCBytes <= 0 {
			return fmt.Errorf("placement: chain %q demand must be positive", c.Name)
		}
		fits := false
		for _, n := range caps {
			if c.Cores <= n.Cores && c.LLCBytes <= n.LLCBytes {
				fits = true
				break
			}
		}
		if !fits {
			return fmt.Errorf("placement: chain %q needs %v cores / %d LLC bytes, exceeding every node's capacity: %w",
				c.Name, c.Cores, c.LLCBytes, ErrInfeasible)
		}
	}
	for _, a := range p.Affinities {
		if !seen[a.A] || !seen[a.B] {
			return fmt.Errorf("placement: affinity references unknown chain (%q, %q)", a.A, a.B)
		}
		if a.PPS < 0 {
			return errors.New("placement: negative affinity")
		}
	}
	return nil
}

// Assignment maps chain name to node index.
type Assignment map[string]int

// Solution is a placement outcome.
type Solution struct {
	Assignment Assignment
	// NodesUsed is the number of distinct nodes hosting chains.
	NodesUsed int
	// CrossPPS is the affinity traffic that crosses node boundaries
	// (the cache-locality loss the consolidation minimizes).
	CrossPPS float64
}

// Policy is a pluggable placement algorithm: the seam the cluster
// controllers select over (analytic baselines here; the DRL placement
// head lives in env.ClusterEnv's action decode and bypasses this
// interface entirely). Implementations must be deterministic — the
// figure drivers byte-diff their outputs across runs.
type Policy interface {
	// Name identifies the policy in reports and JSONL rows.
	Name() string
	// Solve computes an assignment for the instance. Infeasible
	// instances report an error wrapping ErrInfeasible.
	Solve(p Problem) (Solution, error)
}

// FFDSwap is the original consolidation heuristic: First-Fit-
// Decreasing packing by core demand, then pairwise-move/swap local
// search that reduces cross-node affinity traffic without increasing
// the node count.
type FFDSwap struct{}

// Name implements Policy.
func (FFDSwap) Name() string { return "ffd+swap" }

// Solve packs the chains: First-Fit-Decreasing by core demand for the
// node count, then pairwise-move local search to reduce cross-node
// affinity traffic without increasing the node count.
func Solve(p Problem) (Solution, error) { return FFDSwap{}.Solve(p) }

// Solve implements Policy.
func (FFDSwap) Solve(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	caps := p.capacities()
	// FFD by cores (ties by LLC).
	order := make([]int, len(p.Chains))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := p.Chains[order[a]], p.Chains[order[b]]
		if ca.Cores != cb.Cores {
			return ca.Cores > cb.Cores
		}
		return ca.LLCBytes > cb.LLCBytes
	})

	type nodeState struct {
		cores float64
		llc   int64
	}
	nodes := make([]nodeState, len(caps))
	assign := Assignment{}
	for _, idx := range order {
		c := p.Chains[idx]
		placed := false
		for n := range caps {
			if nodes[n].cores+c.Cores <= caps[n].Cores &&
				nodes[n].llc+c.LLCBytes <= caps[n].LLCBytes {
				nodes[n].cores += c.Cores
				nodes[n].llc += c.LLCBytes
				assign[c.Name] = n
				placed = true
				break
			}
		}
		if !placed {
			return Solution{}, fmt.Errorf("placement: chain %q does not fit on %d nodes: %w",
				c.Name, len(caps), ErrInfeasible)
		}
	}

	demand := map[string]ChainDemand{}
	for _, c := range p.Chains {
		demand[c.Name] = c
	}
	fits := func(name string, n int) bool {
		c := demand[name]
		return nodes[n].cores+c.Cores <= caps[n].Cores && nodes[n].llc+c.LLCBytes <= caps[n].LLCBytes
	}
	move := func(name string, from, to int) {
		c := demand[name]
		nodes[from].cores -= c.Cores
		nodes[from].llc -= c.LLCBytes
		nodes[to].cores += c.Cores
		nodes[to].llc += c.LLCBytes
		assign[name] = to
	}

	// Local search: repair split affinities by moving one endpoint
	// next to the other when capacity allows, or by swapping an
	// endpoint with a third chain when both nodes are full. Accept
	// only strict cross-traffic reductions, so the search terminates.
	improved := true
	for iter := 0; improved && iter < 4*len(p.Chains); iter++ {
		improved = false
		for _, a := range p.Affinities {
			na, nb := assign[a.A], assign[a.B]
			if na == nb || a.PPS == 0 {
				continue
			}
			before := crossPPS(p, assign)
			done := false
			// Single moves.
			for _, cand := range []struct {
				name     string
				from, to int
			}{{a.A, na, nb}, {a.B, nb, na}} {
				if !fits(cand.name, cand.to) {
					continue
				}
				move(cand.name, cand.from, cand.to)
				if after := crossPPS(p, assign); after < before {
					improved, done = true, true
					break
				}
				move(cand.name, cand.to, cand.from) // revert
			}
			if done {
				continue
			}
			// Swaps: exchange B with a third chain X on A's node.
			b := demand[a.B]
			for _, x := range p.Chains {
				if assign[x.Name] != na || x.Name == a.A {
					continue
				}
				// Feasibility after the exchange, checked
				// arithmetically before touching state.
				naCoresAfter := nodes[na].cores - x.Cores + b.Cores
				naLLCAfter := nodes[na].llc - x.LLCBytes + b.LLCBytes
				nbCoresAfter := nodes[nb].cores - b.Cores + x.Cores
				nbLLCAfter := nodes[nb].llc - b.LLCBytes + x.LLCBytes
				if naCoresAfter > caps[na].Cores || naLLCAfter > caps[na].LLCBytes ||
					nbCoresAfter > caps[nb].Cores || nbLLCAfter > caps[nb].LLCBytes {
					continue
				}
				move(x.Name, na, nb)
				move(a.B, nb, na)
				if after := crossPPS(p, assign); after < before {
					improved = true
					break
				}
				move(a.B, na, nb)
				move(x.Name, nb, na)
			}
		}
	}

	used := map[int]bool{}
	for _, n := range assign {
		used[n] = true
	}
	return Solution{
		Assignment: assign,
		NodesUsed:  len(used),
		CrossPPS:   crossPPS(p, assign),
	}, nil
}

// Relaxation is the Sang-et-al.-style analytic baseline
// (arXiv:1702.01154): relax the packing integrality, take the
// fractional optimum's node count (the capacity lower bound over the
// largest-capacity node prefix), then round chains onto that prefix
// largest-fractional-demand first — each chain goes to the feasible
// open node with the strongest affinity pull, ties broken best-fit
// (least residual core slack) then lowest index. If rounding fails,
// the prefix grows by one node and rounding restarts, so the gap to
// the relaxation bound is exactly the number of retries. One pass, no
// local search: this is the provably-efficient comparator the DRL
// head must beat, not another heuristic tower.
type Relaxation struct{}

// Name implements Policy.
func (Relaxation) Name() string { return "relax+round" }

// Solve implements Policy.
func (Relaxation) Solve(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	caps := p.capacities()

	// Open nodes largest-capacity first: the fractional relaxation
	// fills big bins first, and its node count is the smallest prefix
	// covering both resource sums.
	nodeOrder := make([]int, len(caps))
	for i := range nodeOrder {
		nodeOrder[i] = i
	}
	sort.SliceStable(nodeOrder, func(a, b int) bool {
		ca, cb := caps[nodeOrder[a]], caps[nodeOrder[b]]
		if ca.Cores != cb.Cores {
			return ca.Cores > cb.Cores
		}
		return ca.LLCBytes > cb.LLCBytes
	})
	var totCores float64
	var totLLC int64
	for _, c := range p.Chains {
		totCores += c.Cores
		totLLC += c.LLCBytes
	}
	lb := 1
	var sumCores float64
	var sumLLC int64
	for k, idx := range nodeOrder {
		sumCores += caps[idx].Cores
		sumLLC += caps[idx].LLCBytes
		if sumCores >= totCores && sumLLC >= totLLC {
			lb = k + 1
			break
		}
		lb = k + 2 // prefix k+1 does not cover the demand
	}
	if lb > len(caps) {
		return Solution{}, fmt.Errorf("placement: relaxation bound %d exceeds %d nodes: %w",
			lb, len(caps), ErrInfeasible)
	}

	// Round chains largest fractional demand first (demand relative
	// to the biggest node: the variable closest to 1 in the relaxed
	// solution rounds first).
	ref := caps[nodeOrder[0]]
	chainOrder := make([]int, len(p.Chains))
	for i := range chainOrder {
		chainOrder[i] = i
	}
	frac := func(c ChainDemand) float64 {
		f := c.Cores / ref.Cores
		if l := float64(c.LLCBytes) / float64(ref.LLCBytes); l > f {
			f = l
		}
		return f
	}
	sort.SliceStable(chainOrder, func(a, b int) bool {
		fa, fb := frac(p.Chains[chainOrder[a]]), frac(p.Chains[chainOrder[b]])
		if fa != fb {
			return fa > fb
		}
		return p.Chains[chainOrder[a]].LLCBytes > p.Chains[chainOrder[b]].LLCBytes
	})

	for m := lb; m <= len(caps); m++ {
		open := nodeOrder[:m]
		if assign, ok := roundOnto(p, caps, open, chainOrder); ok {
			used := map[int]bool{}
			for _, n := range assign {
				used[n] = true
			}
			return Solution{
				Assignment: assign,
				NodesUsed:  len(used),
				CrossPPS:   crossPPS(p, assign),
			}, nil
		}
	}
	return Solution{}, fmt.Errorf("placement: rounding failed on all %d nodes: %w", len(caps), ErrInfeasible)
}

// roundOnto performs one rounding pass over the open node prefix.
func roundOnto(p Problem, caps []NodeCapacity, open []int, chainOrder []int) (Assignment, bool) {
	resCores := make(map[int]float64, len(open))
	resLLC := make(map[int]int64, len(open))
	for _, n := range open {
		resCores[n] = caps[n].Cores
		resLLC[n] = caps[n].LLCBytes
	}
	assign := Assignment{}
	for _, ci := range chainOrder {
		c := p.Chains[ci]
		best, bestPull, bestSlack := -1, -1.0, 0.0
		for _, n := range open {
			if c.Cores > resCores[n] || c.LLCBytes > resLLC[n] {
				continue
			}
			// Affinity pull: traffic to chains already rounded onto n.
			pull := 0.0
			for _, a := range p.Affinities {
				other := ""
				switch c.Name {
				case a.A:
					other = a.B
				case a.B:
					other = a.A
				default:
					continue
				}
				if on, ok := assign[other]; ok && on == n {
					pull += a.PPS
				}
			}
			slack := resCores[n] - c.Cores
			if best < 0 || pull > bestPull || (pull == bestPull && slack < bestSlack) {
				best, bestPull, bestSlack = n, pull, slack
			}
		}
		if best < 0 {
			return nil, false
		}
		resCores[best] -= c.Cores
		resLLC[best] -= c.LLCBytes
		assign[c.Name] = best
	}
	return assign, true
}

// crossPPS totals affinity traffic whose endpoints sit on different
// nodes.
func crossPPS(p Problem, a Assignment) float64 {
	var sum float64
	for _, af := range p.Affinities {
		if a[af.A] != a[af.B] {
			sum += af.PPS
		}
	}
	return sum
}

// LowerBoundNodes reports a simple capacity lower bound on the node
// count: for homogeneous instances the max of the core-sum and
// LLC-sum bounds; for heterogeneous ones the smallest
// largest-capacity-first prefix covering both resource sums.
func LowerBoundNodes(p Problem) int {
	var cores float64
	var llc int64
	for _, c := range p.Chains {
		cores += c.Cores
		llc += c.LLCBytes
	}
	if len(p.Nodes) == 0 {
		byCores := int(ceilDiv(cores, p.Node.Cores))
		byLLC := int((llc + p.Node.LLCBytes - 1) / p.Node.LLCBytes)
		if byCores > byLLC {
			return byCores
		}
		return byLLC
	}
	byCores := prefixBound(len(p.Nodes), func(i int) float64 { return p.Nodes[i].Cores }, cores)
	byLLC := prefixBound(len(p.Nodes), func(i int) float64 { return float64(p.Nodes[i].LLCBytes) }, float64(llc))
	if byCores > byLLC {
		return byCores
	}
	return byLLC
}

// prefixBound is the smallest count of largest-first capacities whose
// sum covers the demand (n+1 when even all of them do not).
func prefixBound(n int, capAt func(i int) float64, demand float64) int {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = capAt(i)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	sum := 0.0
	for i, v := range vals {
		sum += v
		if sum >= demand {
			return i + 1
		}
	}
	return n + 1
}

func ceilDiv(a, b float64) float64 {
	n := a / b
	if n != float64(int(n)) {
		return float64(int(n) + 1)
	}
	return n
}
