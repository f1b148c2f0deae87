package env

import (
	"errors"
	"fmt"
	"math/rand"

	"greennfv/internal/cluster"
	"greennfv/internal/perfmodel"
	"greennfv/internal/placement"
	"greennfv/internal/sla"
)

// ClusterChain is one service chain of a cluster workload: a spec
// plus its own offered flow set.
type ClusterChain struct {
	Chain perfmodel.ChainSpec
	Flows []FlowLoad
}

// ClusterConfig assembles a multi-node environment.
type ClusterConfig struct {
	Topology cluster.Topology
	Chains   []ClusterChain
	// Hops is the inter-chain traffic graph (cluster.Workload.Hops).
	Hops []cluster.Hop
	// LatencyBudgetNs gates SLA-credited throughput (0 disables).
	LatencyBudgetNs float64
	Bounds          perfmodel.KnobBounds
	SLA             sla.SLA
	LoadJitter      float64
	FrozenKnobs     [KnobsPerNF]bool
	Options         perfmodel.EvalOptions
	Seed            int64
	// Placement pins the assignment: the policy solves the derived
	// placement instance once at construction and every episode runs
	// under that assignment. nil on a multi-node topology enables the
	// DRL placement head — the action vector grows a per-chain
	// placement logit block and the agent places chains itself.
	Placement placement.Policy
	// Assignment pins an already-resolved assignment instead: chain i
	// runs on node Assignment[i] in every episode and no policy is
	// consulted. It is what Assignment() reads back from an environment
	// built with Placement, so a caller that builds many environments
	// over one workload solves once and hands the result to the rest
	// (internal/sweep). Set at most one of the two.
	Assignment []int
}

// ClusterEnv is the environment: it steps a whole cluster.Workload
// through cluster evaluation, and owns the only decode → advance-load
// → evaluate → observe → reward implementation in the package. Its
// observation vector is the concatenation of every chain's per-NF
// block (the paper's equation 8, normalized) followed, on multi-node
// topologies, by per-node {utilization, power} pairs and the current
// assignment one-hot — and its action vector is every chain's knob
// block followed by the placement logit block when the DRL head is
// active. One chain on one node is the paper's setting; Env is that
// case with single-chain accessors (its episodes are pinned bit for
// bit by TestEnvEpisodeFingerprint).
//
// Not goroutine-safe; each Ape-X actor owns one instance.
type ClusterEnv struct {
	cfg  ClusterConfig
	w    cluster.Workload
	base []perfmodel.Traffic
	src  rand.Source
	rng  *rand.Rand
	// defFlat/knobFlat back the per-chain knob views so neither Reset
	// nor Step allocates.
	defFlat  []perfmodel.NFKnobs
	knobFlat []perfmodel.NFKnobs
	defKnobs [][]perfmodel.NFKnobs
	knobs    [][]perfmodel.NFKnobs
	defKnob  perfmodel.NFKnobs
	assign   []int
	pinned   []int // non-nil when placement is policy-pinned
	last     cluster.Result
	summary  perfmodel.Result
	nfTotal  int
}

// NewCluster validates the configuration and builds the environment.
func NewCluster(cfg ClusterConfig) (*ClusterEnv, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Chains) == 0 {
		return nil, errors.New("env: cluster needs at least one chain")
	}
	if !(cfg.LoadJitter >= 0 && cfg.LoadJitter < 1) { // also rejects NaN
		return nil, errors.New("env: LoadJitter must be in [0,1)")
	}
	e := &ClusterEnv{cfg: cfg}
	e.w = cluster.Workload{
		Chains:          make([]cluster.ChainLoad, len(cfg.Chains)),
		Hops:            cfg.Hops,
		LatencyBudgetNs: cfg.LatencyBudgetNs,
	}
	e.base = make([]perfmodel.Traffic, len(cfg.Chains))
	for i := range cfg.Chains {
		tr, err := Aggregate(cfg.Chains[i].Flows)
		if err != nil {
			return nil, fmt.Errorf("env: chain %d: %w", i, err)
		}
		e.base[i] = tr
		e.w.Chains[i] = cluster.ChainLoad{Chain: cfg.Chains[i].Chain, Traffic: tr}
		e.nfTotal += len(cfg.Chains[i].Chain.NFs)
	}
	if err := e.w.Validate(); err != nil {
		return nil, err
	}

	// Pre-clamped default knobs, chain-major in one backing array.
	e.defFlat = make([]perfmodel.NFKnobs, 0, e.nfTotal)
	e.knobFlat = make([]perfmodel.NFKnobs, e.nfTotal)
	e.defKnobs = make([][]perfmodel.NFKnobs, len(cfg.Chains))
	e.knobs = make([][]perfmodel.NFKnobs, len(cfg.Chains))
	off := 0
	for i := range cfg.Chains {
		n := len(cfg.Chains[i].Chain.NFs)
		def := perfmodel.DefaultKnobs(n)
		for j := range def {
			def[j] = cfg.Bounds.Clamp(def[j])
		}
		e.defFlat = append(e.defFlat, def...)
		e.defKnobs[i] = e.defFlat[off : off+n : off+n]
		e.knobs[i] = e.knobFlat[off : off+n : off+n]
		off += n
	}
	e.defKnob = perfmodel.DefaultKnobs(1)[0]

	e.assign = make([]int, len(cfg.Chains))
	switch {
	case cfg.Placement != nil && cfg.Assignment != nil:
		return nil, errors.New("env: set ClusterConfig.Placement or Assignment, not both")
	case cfg.Assignment != nil:
		if err := e.pin(cfg.Assignment); err != nil {
			return nil, fmt.Errorf("env: pinned assignment: %w", err)
		}
	case cfg.Placement != nil && e.NumNodes() > 1:
		if err := e.solveAndPin(cfg.Placement); err != nil {
			return nil, fmt.Errorf("env: placement (%s): %w", cfg.Placement.Name(), err)
		}
	}
	e.Reset(cfg.Seed)
	return e, nil
}

// solveAndPin runs the policy on the derived placement instance and
// pins what it returns.
func (e *ClusterEnv) solveAndPin(pol placement.Policy) error {
	sol, err := pol.Solve(e.w.PlacementProblem(&e.cfg.Topology))
	if err != nil {
		return err
	}
	byChain, err := assignmentByChain(sol.Assignment, e.cfg.Chains)
	if err != nil {
		return err
	}
	return e.pin(byChain)
}

// assignmentByChain orders a policy's name-keyed assignment by chain
// index. The map read alone would put a chain the policy left out —
// or the second of two chains sharing a name — on node 0 silently, so
// an assignment that does not name every chain exactly once is
// refused.
func assignmentByChain(a placement.Assignment, chains []ClusterChain) ([]int, error) {
	if len(a) != len(chains) {
		return nil, fmt.Errorf("assignment names %d chains, workload has %d", len(a), len(chains))
	}
	out := make([]int, len(chains))
	seen := make(map[string]bool, len(chains))
	for i := range chains {
		name := chains[i].Chain.Name
		node, ok := a[name]
		switch {
		case !ok:
			return nil, fmt.Errorf("assignment omits chain %q", name)
		case seen[name]:
			return nil, fmt.Errorf("two chains named %q share one assignment entry", name)
		}
		seen[name] = true
		out[i] = node
	}
	return out, nil
}

// pin vets a resolved assignment — one entry per chain, every entry a
// node of the topology — and fixes it for every episode. Vetting here
// keeps a bad index an error from the constructor instead of a panic
// from the first evaluation inside Reset.
func (e *ClusterEnv) pin(a []int) error {
	if len(a) != len(e.assign) {
		return fmt.Errorf("%d entries for %d chains", len(a), len(e.assign))
	}
	for c, n := range a {
		if n < 0 || n >= e.NumNodes() {
			return fmt.Errorf("chain %q on node %d, topology has nodes 0..%d",
				e.cfg.Chains[c].Chain.Name, n, e.NumNodes()-1)
		}
	}
	e.pinned = append([]int(nil), a...)
	return nil
}

// NumChains reports the chain count, NumNodes the host count, and
// NumNFs the total NF count across all chains.
func (e *ClusterEnv) NumChains() int { return len(e.cfg.Chains) }

// NumNodes reports the host count.
func (e *ClusterEnv) NumNodes() int { return len(e.cfg.Topology.Nodes) }

// NumNFs reports the total NF count across all chains.
func (e *ClusterEnv) NumNFs() int { return e.nfTotal }

// PlacementHead reports whether the agent's action vector carries the
// per-chain placement logit block (multi-node topology, nothing
// pinned).
func (e *ClusterEnv) PlacementHead() bool {
	return e.pinned == nil && e.NumNodes() > 1
}

// StateDim reports the observation length: StatePerNF per NF, plus —
// on multi-node topologies — 2 per node (utilization, power) and the
// chains×nodes assignment one-hot.
func (e *ClusterEnv) StateDim() int {
	d := StatePerNF * e.nfTotal
	if e.NumNodes() > 1 {
		d += 2*e.NumNodes() + e.NumChains()*e.NumNodes()
	}
	return d
}

// ActionDim reports the action length: KnobsPerNF per NF, plus the
// chains×nodes placement logit block when the DRL head is active.
func (e *ClusterEnv) ActionDim() int {
	d := KnobsPerNF * e.nfTotal
	if e.PlacementHead() {
		d += e.NumChains() * e.NumNodes()
	}
	return d
}

// SLA returns the environment's agreement.
func (e *ClusterEnv) SLA() sla.SLA { return e.cfg.SLA }

// Bounds returns the knob bounds.
func (e *ClusterEnv) Bounds() perfmodel.KnobBounds { return e.cfg.Bounds }

// Assignment returns a copy of the current chain→node assignment: on
// a pinned environment, the resolved assignment every episode runs
// under (what ClusterConfig.Assignment accepts).
func (e *ClusterEnv) Assignment() []int {
	return append([]int(nil), e.assign...)
}

// LastCluster returns the most recent cluster measurement. Its
// slices alias environment scratch, valid until the next step.
func (e *ClusterEnv) LastCluster() *cluster.Result { return &e.last }

// Knobs returns a copy of the current knobs, chain-major.
func (e *ClusterEnv) Knobs() []perfmodel.NFKnobs {
	out := make([]perfmodel.NFKnobs, len(e.knobFlat))
	copy(out, e.knobFlat)
	return out
}

// Reset reseeds the load process, restores default knobs and the
// initial assignment, evaluates once, and returns the initial
// observation.
func (e *ClusterEnv) Reset(seed int64) []float64 {
	return e.ResetInto(seed, make([]float64, e.StateDim()))
}

// ResetInto is Reset with a caller-owned observation buffer.
func (e *ClusterEnv) ResetInto(seed int64, obs []float64) []float64 {
	if e.src == nil {
		e.src = rand.NewSource(seed)
		e.rng = rand.New(e.src)
	} else {
		e.src.Seed(seed)
	}
	copy(e.knobFlat, e.defFlat)
	for c := range e.w.Chains {
		e.w.Chains[c].Traffic = e.base[c]
	}
	e.resetAssignment()
	e.evaluate()
	return e.ObserveInto(obs)
}

// resetAssignment restores the episode-start placement: the pinned
// policy solution when one is configured, node 0 on a single node,
// round-robin otherwise (the DRL head's starting point before its
// first action).
func (e *ClusterEnv) resetAssignment() {
	switch {
	case e.pinned != nil:
		copy(e.assign, e.pinned)
	case e.NumNodes() == 1:
		for c := range e.assign {
			e.assign[c] = 0
		}
	default:
		for c := range e.assign {
			e.assign[c] = c % e.NumNodes()
		}
	}
}

// Step applies an action vector in [-1,1]^ActionDim, advances the
// load process, evaluates the cluster, and returns (observation,
// reward, info). The info Result is the cluster roll-up (Summary).
func (e *ClusterEnv) Step(action []float64) ([]float64, float64, perfmodel.Result, error) {
	obs := make([]float64, e.StateDim())
	r, info, err := e.StepInto(action, obs)
	if err != nil {
		return nil, 0, perfmodel.Result{}, err
	}
	return obs, r, info, nil
}

// StepInto is Step with a caller-owned observation buffer: the
// zero-alloc path the Ape-X actors drive.
func (e *ClusterEnv) StepInto(action, obs []float64) (float64, perfmodel.Result, error) {
	if len(action) != e.ActionDim() {
		return 0, perfmodel.Result{}, fmt.Errorf("env: action dim %d, want %d", len(action), e.ActionDim())
	}
	if len(obs) != e.StateDim() {
		return 0, perfmodel.Result{}, fmt.Errorf("env: obs dim %d, want %d", len(obs), e.StateDim())
	}
	// Knob block, chain-major.
	j := 0
	for c := range e.knobs {
		n := len(e.knobs[c])
		for i := 0; i < n; i++ {
			e.knobs[c][i] = decodeKnobAction(action[j:j+KnobsPerNF], e.cfg.Bounds, e.cfg.FrozenKnobs, e.defKnob, n)
			j += KnobsPerNF
		}
	}
	// Placement logit block: argmax per chain, ties to the lowest
	// node index so the decode is deterministic.
	if e.PlacementHead() {
		nNodes := e.NumNodes()
		for c := range e.assign {
			best, bestV := 0, action[j]
			for n := 1; n < nNodes; n++ {
				if v := action[j+n]; v > bestV {
					best, bestV = n, v
				}
			}
			e.assign[c] = best
			j += nNodes
		}
	}
	e.advanceLoad()
	e.evaluate()
	r := e.cfg.SLA.Reward(e.last.SLAGbps, e.last.EnergyJ)
	e.ObserveInto(obs)
	return r, e.summary, nil
}

// advanceLoad jitters each chain's offered traffic around its base,
// consuming the shared RNG in chain order.
func (e *ClusterEnv) advanceLoad() {
	for c := range e.w.Chains {
		e.w.Chains[c].Traffic = e.base[c]
		if e.cfg.LoadJitter > 0 {
			f := 1 + e.cfg.LoadJitter*(2*e.rng.Float64()-1)
			e.w.Chains[c].Traffic.OfferedPPS *= f
		}
	}
}

// evaluate runs the cluster model at the current knobs, load, and
// assignment, reusing e.last's scratch, then refreshes the roll-up.
func (e *ClusterEnv) evaluate() {
	if err := e.cfg.Topology.EvaluateClusterInto(&e.last, &e.w, e.knobs, e.assign, e.cfg.Options); err != nil {
		// Inputs are clamped and validated at construction; a model
		// error here is a programming bug.
		panic(fmt.Sprintf("env: cluster evaluate: %v", err))
	}
	// Roll the cluster result into the Stepper's single-Result view.
	// One chain on one node needs no roll-up: the view is that chain's
	// full measurement, verbatim (re-deriving CPUPercent from busy
	// cores would round it).
	if len(e.last.PerChain) == 1 && e.NumNodes() == 1 {
		e.summary = e.last.PerChain[0]
		return
	}
	var busy, power, util float64
	for n := range e.last.PerNode {
		power += e.last.PerNode[n].PowerWatts
		busy += e.last.PerNode[n].BusyCores
		util += e.last.PerNode[n].Utilization
	}
	e.summary = perfmodel.Result{
		ThroughputGbps: e.last.ThroughputGbps,
		EnergyJoules:   e.last.EnergyJ,
		PowerWatts:     power,
		CPUPercent:     busy * 100,
		Utilization:    util / float64(e.NumNodes()),
		Efficiency:     e.last.Efficiency,
	}
}

// ObserveInto writes the observation vector into dst (length
// StateDim; a buffer of the wrong size is a programming error and
// panics) and returns dst. The per-NF block is the paper's state
// vector — normalized {throughput, energy, CPU utilization, arrival
// rate} — per chain; node utilization is already in [0,1] and node
// power normalizes against a 400 W envelope.
func (e *ClusterEnv) ObserveInto(dst []float64) []float64 {
	if len(dst) != e.StateDim() {
		panic(fmt.Sprintf("env: ObserveInto buffer len %d, want %d", len(dst), e.StateDim()))
	}
	j := 0
	for c := range e.w.Chains {
		r := &e.last.PerChain[c]
		n := float64(len(e.w.Chains[c].Chain.NFs))
		for i := 0; i < len(e.w.Chains[c].Chain.NFs); i++ {
			busy := 0.0
			if i < len(r.PerNF) {
				busy = r.PerNF[i].BusyCores
			}
			dst[j] = r.ThroughputGbps / 10
			dst[j+1] = r.EnergyJoules / (3300 * n)
			dst[j+2] = busy / 4
			dst[j+3] = e.w.Chains[c].Traffic.OfferedPPS / 15e6
			j += StatePerNF
		}
	}
	if e.NumNodes() > 1 {
		for n := range e.last.PerNode {
			dst[j] = e.last.PerNode[n].Utilization
			dst[j+1] = e.last.PerNode[n].PowerWatts / 400
			j += 2
		}
		for c := range e.assign {
			for n := 0; n < e.NumNodes(); n++ {
				if e.assign[c] == n {
					dst[j] = 1
				} else {
					dst[j] = 0
				}
				j++
			}
		}
	}
	return dst
}

// StandardClusterChains builds n chains cycling the standard, heavy,
// and light presets, each carrying the standard five-flow workload
// scaled to half rate (so several chains can consolidate onto one
// host), plus a hop chain linking consecutive chains — the
// service-function path whose splits the placement pays for. Chain
// names are made unique per index so the derived placement instance
// validates.
func StandardClusterChains(n int) ([]ClusterChain, []cluster.Hop) {
	chains := make([]ClusterChain, n)
	for i := 0; i < n; i++ {
		var spec perfmodel.ChainSpec
		switch i % 3 {
		case 0:
			spec = perfmodel.StandardChain()
		case 1:
			spec = perfmodel.HeavyChain()
		default:
			spec = perfmodel.LightChain()
		}
		spec.Name = fmt.Sprintf("%s-%d", spec.Name, i)
		flows := StandardWorkload()
		for f := range flows {
			flows[f].PPS *= 0.5
		}
		chains[i] = ClusterChain{Chain: spec, Flows: flows}
	}
	hops := make([]cluster.Hop, 0, n-1)
	for i := 1; i < n; i++ {
		hops = append(hops, cluster.Hop{From: i - 1, To: i, PPS: 600e3, FrameBytes: 512})
	}
	return chains, hops
}
