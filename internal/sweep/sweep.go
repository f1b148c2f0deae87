package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"greennfv/internal/cluster"
	"greennfv/internal/control"
	"greennfv/internal/env"
	"greennfv/internal/nn"
	"greennfv/internal/perfmodel"
	"greennfv/internal/placement"
	"greennfv/internal/pool"
	"greennfv/internal/sla"
)

// Tier is one named SLA grid axis value.
type Tier struct {
	Name string
	SLA  sla.SLA
}

// Mix is one named traffic-mix grid axis value.
type Mix struct {
	Name       string
	Flows      []env.FlowLoad
	LoadJitter float64
}

// scaleFlows returns the flow set with every packet rate multiplied
// by f and burstiness multiplied by b.
func scaleFlows(flows []env.FlowLoad, f, b float64) []env.FlowLoad {
	out := make([]env.FlowLoad, len(flows))
	for i, fl := range flows {
		fl.PPS *= f
		fl.Burstiness *= b
		out[i] = fl
	}
	return out
}

// DefaultTiers returns the paper's SLA instances as grid tiers: both
// Maximum-Throughput energy budgets (2000 J and 3300 J), both
// Minimum-Energy throughput floors (7.5 and 7 Gbps), and the
// unconstrained Energy-Efficiency target.
func DefaultTiers() ([]Tier, error) {
	maxT2000, err := sla.NewMaxThroughput(2000)
	if err != nil {
		return nil, err
	}
	maxT3300, err := sla.NewMaxThroughput(3300)
	if err != nil {
		return nil, err
	}
	minE75, err := sla.NewMinEnergy(7.5)
	if err != nil {
		return nil, err
	}
	minE70, err := sla.NewMinEnergy(7)
	if err != nil {
		return nil, err
	}
	return []Tier{
		{Name: "maxT-2000J", SLA: maxT2000},
		{Name: "maxT-3300J", SLA: maxT3300},
		{Name: "minE-7.5G", SLA: minE75},
		{Name: "minE-7.0G", SLA: minE70},
		{Name: "ee", SLA: sla.NewEnergyEfficiency()},
	}, nil
}

// DefaultMixes returns the traffic-mix axis: the paper's standard
// five-flow workload, a light variant (60% of the offered rate) and a
// heavy, burstier one (130% rate, doubled burstiness, more jitter).
func DefaultMixes() []Mix {
	std := env.StandardWorkload()
	return []Mix{
		{Name: "standard", Flows: std, LoadJitter: 0.03},
		{Name: "light", Flows: scaleFlows(std, 0.6, 1), LoadJitter: 0.03},
		{Name: "heavy", Flows: scaleFlows(std, 1.3, 2), LoadJitter: 0.06},
	}
}

// Topo is one topology grid axis value: how many nodes the cell's
// environment spans. Nodes <= 1 selects the original single-node
// environment path (and skips the placement axis — the row's
// placement field stays empty); larger values build a heterogeneous
// cluster (cluster.Heterogeneous) of that many nodes.
type Topo struct {
	Name  string
	Nodes int
}

// Placement is one placement-policy grid axis value for multi-node
// topologies. A nil Policy selects the DRL placement head: the agent's
// action vector carries per-chain placement logits instead of a
// pinned analytic assignment.
type Placement struct {
	Name   string
	Policy placement.Policy
}

// DefaultTopos returns the topology axis of the cluster sweep: the
// original single node plus heterogeneous 4- and 8-node clusters.
func DefaultTopos() []Topo {
	return []Topo{
		{Name: "single", Nodes: 1},
		{Name: "hetero-4", Nodes: 4},
		{Name: "hetero-8", Nodes: 8},
	}
}

// DefaultPlacements returns the placement axis: the DRL head and both
// analytic baselines.
func DefaultPlacements() []Placement {
	return []Placement{
		{Name: "drl-head", Policy: nil},
		{Name: placement.FFDSwap{}.Name(), Policy: placement.FFDSwap{}},
		{Name: placement.Relaxation{}.Name(), Policy: placement.Relaxation{}},
	}
}

// Config sizes a sweep.
type Config struct {
	// Seeds, Tiers and Mixes span the grid; every combination is one
	// cell.
	Seeds []int64
	Tiers []Tier
	Mixes []Mix
	// Topos optionally adds the topology axis; empty keeps the
	// original single-node grid (and the original rows, byte for
	// byte). Placements crosses multi-node topologies with placement
	// policies; empty defaults multi-node cells to the DRL head.
	Topos      []Topo
	Placements []Placement
	// TrainSteps / Actors budget each cell's Ape-X training run;
	// ControlSteps is the post-training measurement horizon.
	TrainSteps   int
	Actors       int
	ControlSteps int
	// ParallelTrain trains each cell with the concurrent pipeline
	// (fast, non-deterministic) instead of round-robin.
	ParallelTrain bool
	// Workers bounds concurrently running cells (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig returns the standard grid — 2 seeds × 5 SLA tiers ×
// 3 traffic mixes = 30 cells — at the given budgets.
func DefaultConfig(trainSteps, actors, controlSteps int) (Config, error) {
	tiers, err := DefaultTiers()
	if err != nil {
		return Config{}, err
	}
	return Config{
		Seeds:        []int64{17, 43},
		Tiers:        tiers,
		Mixes:        DefaultMixes(),
		TrainSteps:   trainSteps,
		Actors:       actors,
		ControlSteps: controlSteps,
	}, nil
}

// Validate reports whether the grid is runnable.
func (c Config) Validate() error {
	switch {
	case len(c.Seeds) == 0 || len(c.Tiers) == 0 || len(c.Mixes) == 0:
		return errors.New("sweep: need at least one seed, tier and mix")
	case c.TrainSteps <= 0 || c.Actors <= 0 || c.ControlSteps <= 0:
		return errors.New("sweep: all budgets must be positive")
	}
	return nil
}

// Cells reports the grid size: single-node topologies contribute one
// cell per (seed, tier, mix), multi-node ones one cell per placement.
func (c Config) Cells() int {
	per := 1
	if len(c.Topos) > 0 {
		pl := len(c.Placements)
		if pl == 0 {
			pl = 1
		}
		per = 0
		for _, t := range c.Topos {
			if t.Nodes <= 1 {
				per++
			} else {
				per += pl
			}
		}
	}
	return len(c.Seeds) * len(c.Tiers) * len(c.Mixes) * per
}

// Result is one grid cell's outcome — one JSON row.
type Result struct {
	Seed      int64  `json:"seed"`
	SLA       string `json:"sla"`
	SLADetail string `json:"sla_detail"`
	Traffic   string `json:"traffic"`
	// Topology identity, set only when the grid has a topology axis;
	// single-node rows of a topology-less grid omit all three.
	Topology  string `json:"topology,omitempty"`
	Nodes     int    `json:"nodes,omitempty"`
	Placement string `json:"placement,omitempty"`

	TrainSteps   int `json:"train_steps"`
	Actors       int `json:"actors"`
	ControlSteps int `json:"control_steps"`

	// Settled means over the last quarter of the control horizon.
	ThroughputGbps float64 `json:"throughput_gbps"`
	EnergyJ        float64 `json:"energy_j"`
	Efficiency     float64 `json:"efficiency_gbps_per_kj"`
	// SLA satisfaction over the whole control horizon.
	ViolationRate float64 `json:"violation_rate"`
	MeanViolation float64 `json:"mean_violation"`
	// Cluster-only extras (zero and omitted on single-node rows).
	NodesUsed   int     `json:"nodes_used,omitempty"`
	LinkEnergyJ float64 `json:"link_energy_j,omitempty"`

	TrainSeconds float64 `json:"train_seconds"`
	Error        string  `json:"error,omitempty"`
	// Kernels is the nn kernel set the row was computed with
	// (nn.KernelSet): trained rows differ in their last bits across
	// sets.
	Kernels string `json:"kernels"`
}

// cell is one grid position — a seed, indices into the tier and mix
// axes, a topology and a placement — plus what the plan resolved for
// it before anything trains.
type cell struct {
	seed      int64
	tier, mix int
	topo      Topo
	pl        Placement
	// pinned is the placement policy's resolved assignment, planErr its
	// failure; both stay zero on DRL-head and single-node cells.
	pinned  []int
	planErr error
	// primary indexes the cell whose training this one's row comes
	// from: the cell itself unless an earlier cell has the same key.
	primary int
}

// clusterConfig is the environment family of a multi-node cell: the
// FigCluster workload (six preset chains in one service-function
// path, 150 µs end-to-end budget) on a heterogeneous topology, each
// chain carrying the mix at half rate — the scaling
// StandardClusterChains applies to the standard workload, so the
// "standard" mix reproduces it exactly.
func clusterConfig(s sla.SLA, m Mix, nodes int, seed int64) env.ClusterConfig {
	chains, hops := env.StandardClusterChains(6)
	for i := range chains {
		chains[i].Flows = scaleFlows(m.Flows, 0.5, 1)
	}
	return env.ClusterConfig{
		Topology:        cluster.Heterogeneous(nodes),
		Chains:          chains,
		Hops:            hops,
		LatencyBudgetNs: 150e3,
		Bounds:          perfmodel.DefaultBounds(),
		SLA:             s,
		LoadJitter:      m.LoadJitter,
		Seed:            seed,
	}
}

// resolve runs a placement policy once on the instance a (mix,
// cluster size) pair derives and reads the vetted assignment back.
// Neither the SLA nor the seed enters the instance (chain demands,
// offered rates, node capacities, hop affinities), so one resolution
// serves every seed and tier of the grid.
func resolve(m Mix, nodes int, pol placement.Policy) ([]int, error) {
	cc := clusterConfig(sla.SLA{}, m, nodes, 0)
	cc.Placement = pol
	e, err := env.NewCluster(cc)
	if err != nil {
		return nil, err
	}
	return e.Assignment(), nil
}

// plan lays the grid out in seed-major order, resolves every pinned
// placement once per (mix, cluster size, policy), and points each cell
// at the first cell built from the same inputs. The key of a pinned
// multi-node cell is exactly what cellEnv constructs its environments
// from — seed, tier, mix, cluster size, resolved assignment — and
// such a cell always trains round-robin, so cells with equal keys are
// one deterministic computation. Every other cell is its own primary:
// the DRL head has no assignment to compare, and single-node cells
// may train with the non-deterministic pipeline.
func plan(cfg Config) []cell {
	topos := cfg.Topos
	if len(topos) == 0 {
		// Implicit single-node grid: identity fields stay empty so the
		// rows match the pre-topology schema byte for byte.
		topos = []Topo{{}}
	}
	pls := cfg.Placements
	if len(pls) == 0 {
		pls = []Placement{{Name: "drl-head"}}
	}
	type instance struct{ mix, nodes, pl int }
	type resolution struct {
		assign []int
		err    error
	}
	resolved := map[instance]resolution{}
	type key struct {
		seed             int64
		tier, mix, nodes int
		assign           string
	}
	first := map[key]int{}
	var cells []cell
	// pin gives a policy-placed cell, about to become cells[len(cells)],
	// its resolved assignment and its primary.
	pin := func(c *cell, pi int) {
		in := instance{c.mix, c.topo.Nodes, pi}
		r, ok := resolved[in]
		if !ok {
			r.assign, r.err = resolve(cfg.Mixes[c.mix], c.topo.Nodes, c.pl.Policy)
			resolved[in] = r
		}
		c.pinned, c.planErr = r.assign, r.err
		if r.err != nil {
			return
		}
		k := key{c.seed, c.tier, c.mix, c.topo.Nodes, fmt.Sprint(r.assign)}
		if p, ok := first[k]; ok {
			c.primary = p
		} else {
			first[k] = len(cells)
		}
	}
	for _, seed := range cfg.Seeds {
		for ti := range cfg.Tiers {
			for mi := range cfg.Mixes {
				for _, topo := range topos {
					if topo.Nodes <= 1 {
						cells = append(cells, cell{seed: seed, tier: ti, mix: mi, topo: topo, primary: len(cells)})
						continue
					}
					for pi, pl := range pls {
						c := cell{seed: seed, tier: ti, mix: mi, topo: topo, pl: pl, primary: len(cells)}
						if pl.Policy != nil {
							pin(&c, pi)
						}
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells
}

// stamp writes the cell's topology and placement identity into a row.
// On a single node the topo value only names the row: an explicit
// topology axis value is recorded, the implicit (topology-less) grid
// leaves the fields empty so existing rows stay byte-identical.
func (c cell) stamp(r *Result) {
	if c.topo.Nodes > 1 {
		r.Topology, r.Nodes, r.Placement = c.topo.Name, c.topo.Nodes, c.pl.Name
	} else if c.topo.Name != "" {
		r.Topology, r.Nodes = c.topo.Name, 1
	}
}

// cellEnv builds one environment of a cell's family. A single-node
// cell runs the paper's environment — the standard chain under the
// mix; a multi-node cell runs clusterConfig under the assignment the
// plan resolved (nil: the DRL placement head).
func cellEnv(s sla.SLA, m Mix, nodes int, pinned []int, seed int64) (env.Stepper, error) {
	if nodes <= 1 {
		return env.New(env.Config{
			Model:      perfmodel.Default(),
			Chain:      perfmodel.StandardChain(),
			Bounds:     perfmodel.DefaultBounds(),
			SLA:        s,
			Flows:      m.Flows,
			LoadJitter: m.LoadJitter,
			Seed:       seed,
		})
	}
	cc := clusterConfig(s, m, nodes, seed)
	cc.Assignment = pinned
	return env.NewCluster(cc)
}

// runCell trains and measures one grid cell. Multi-node cells add the
// placement name and the cluster extras, and always train round-robin:
// the concurrent pipeline would step a ClusterEnv just as well, but
// plan shares one training between cells with equal keys, which only a
// deterministic trainer makes the same computation — so every cluster
// row is deterministic given its seed.
func runCell(cfg Config, c cell) (Result, error) {
	tier, mix := cfg.Tiers[c.tier], cfg.Mixes[c.mix]
	r := Result{
		Seed: c.seed, SLA: tier.Name, SLADetail: tier.SLA.Describe(),
		Traffic: mix.Name, TrainSteps: cfg.TrainSteps, Actors: cfg.Actors,
		ControlSteps: cfg.ControlSteps, Kernels: nn.KernelSet(),
	}
	c.stamp(&r)
	if c.planErr != nil {
		return r, fmt.Errorf("prepare: %w", c.planErr)
	}
	multi := c.topo.Nodes > 1
	g := control.NewGreenNFV(tier.SLA, cfg.TrainSteps, cfg.Actors, c.seed)
	g.Train.Parallel = cfg.ParallelTrain && !multi
	newEnv := func(seed int64) (env.Stepper, error) {
		return cellEnv(tier.SLA, mix, c.topo.Nodes, c.pinned, seed)
	}
	start := time.Now()
	if err := g.TrainOn(newEnv); err != nil {
		return r, fmt.Errorf("prepare: %w", err)
	}
	r.TrainSeconds = time.Since(start).Seconds()

	// Measure the trained policy: run the control loop, track SLA
	// satisfaction on every interval, and report the settled means of
	// the last quarter of the horizon (the Fig 9 idiom).
	e, err := newEnv(c.seed + 1000)
	if err != nil {
		return r, fmt.Errorf("measure env: %w", err)
	}
	tracker := sla.NewTracker(tier.SLA)
	settle := cfg.ControlSteps / 4
	if settle < 1 {
		settle = 1
	}
	var tput, energy, link float64
	for i := 0; i < cfg.ControlSteps; i++ {
		res, err := g.StepOn(e)
		if err != nil {
			return r, fmt.Errorf("control step %d: %w", i, err)
		}
		tracker.Observe(res.ThroughputGbps, res.EnergyJoules)
		if i >= cfg.ControlSteps-settle {
			tput += res.ThroughputGbps
			energy += res.EnergyJoules
			if multi {
				last := e.(*env.ClusterEnv).LastCluster()
				link += last.LinkEnergyJ
				r.NodesUsed = last.NodesUsed
			}
		}
	}
	r.ThroughputGbps = tput / float64(settle)
	r.EnergyJ = energy / float64(settle)
	if r.EnergyJ > 0 {
		r.Efficiency = r.ThroughputGbps / (r.EnergyJ / 1000)
	}
	r.LinkEnergyJ = link / float64(settle)
	r.ViolationRate = tracker.ViolationRate()
	r.MeanViolation = tracker.MeanViolation()
	return r, nil
}

// Run plans the grid, trains and measures every distinct cell across
// the shared bounded worker pool, and returns one Result per cell in
// deterministic seed-major order regardless of scheduling. A cell
// whose key an earlier cell already has is not trained again: its row
// is that cell's row under its own topology and placement names, with
// TrainSeconds 0. A failing cell records its error in the row (and in
// the rows that share it) and does not stop the rest of the grid; the
// lowest failing cell's error is also returned after all cells ran.
func Run(cfg Config) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cells := plan(cfg)
	var distinct []int
	for i, c := range cells {
		if c.primary == i {
			distinct = append(distinct, i)
		}
	}
	results := make([]Result, len(cells))
	// A failing cell must not stop the rest of the grid — every row
	// carries its own Error field and the JSONL writer emits all of
	// them — so cell errors are recorded in the rows rather than
	// returned to the pool (pool.ForEach stops claiming new work once
	// a closure errors). workers <= 0 selects GOMAXPROCS inside
	// ForEach.
	pool.ForEach(len(distinct), cfg.Workers, func(k int) error {
		i := distinct[k]
		r, err := runCell(cfg, cells[i])
		if err != nil {
			r.Error = err.Error()
		}
		results[i] = r
		return nil
	})
	for i, c := range cells {
		if c.primary != i {
			r := results[c.primary]
			c.stamp(&r)
			r.TrainSeconds = 0
			results[i] = r
		}
	}
	for i := range results {
		if results[i].Error != "" {
			c := cells[i]
			return results, fmt.Errorf("sweep: cell %d (%s/%s/seed %d): %s",
				i, cfg.Tiers[c.tier].Name, cfg.Mixes[c.mix].Name, c.seed, results[i].Error)
		}
	}
	return results, nil
}

// WriteJSONL emits one compact JSON row per result.
func WriteJSONL(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	for i := range results {
		if err := enc.Encode(&results[i]); err != nil {
			return err
		}
	}
	return nil
}
