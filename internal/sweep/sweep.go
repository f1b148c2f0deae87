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
}

// cellEnv builds one environment of a cell's family. A single-node
// cell runs the paper's environment — the standard chain under the
// mix. A multi-node cell runs the FigCluster workload (six preset
// chains in one service-function path, 150 µs end-to-end budget) on a
// heterogeneous topology, each chain carrying the mix at half rate —
// the scaling StandardClusterChains applies to the standard workload,
// so the "standard" mix reproduces it exactly.
func cellEnv(s sla.SLA, m Mix, nodes int, pol placement.Policy, seed int64) (env.Stepper, error) {
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
	chains, hops := env.StandardClusterChains(6)
	for i := range chains {
		chains[i].Flows = scaleFlows(m.Flows, 0.5, 1)
	}
	return env.NewCluster(env.ClusterConfig{
		Topology:        cluster.Heterogeneous(nodes),
		Chains:          chains,
		Hops:            hops,
		LatencyBudgetNs: 150e3,
		Bounds:          perfmodel.DefaultBounds(),
		SLA:             s,
		LoadJitter:      m.LoadJitter,
		Seed:            seed,
		Placement:       pol,
	})
}

// runCell trains and measures one grid cell. On a single node the
// topo argument only stamps row identity: an explicit topology axis
// value names the row, the implicit (topology-less) grid leaves the
// fields empty so existing rows stay byte-identical. Multi-node cells
// add the placement name and the cluster extras, and always train
// round-robin (the concurrent pipeline vectorizes the single-node
// layout), so every cluster row is deterministic given its seed.
func runCell(cfg Config, seed int64, tier Tier, mix Mix, topo Topo, pl Placement) (Result, error) {
	r := Result{
		Seed: seed, SLA: tier.Name, SLADetail: tier.SLA.Describe(),
		Traffic: mix.Name, TrainSteps: cfg.TrainSteps, Actors: cfg.Actors,
		ControlSteps: cfg.ControlSteps,
	}
	multi := topo.Nodes > 1
	if multi {
		r.Topology, r.Nodes, r.Placement = topo.Name, topo.Nodes, pl.Name
	} else if topo.Name != "" {
		r.Topology, r.Nodes = topo.Name, 1
	}
	g := control.NewGreenNFV(tier.SLA, cfg.TrainSteps, cfg.Actors, seed)
	g.Train.Parallel = cfg.ParallelTrain && !multi
	newEnv := func(seed int64) (env.Stepper, error) {
		return cellEnv(tier.SLA, mix, topo.Nodes, pl.Policy, seed)
	}
	start := time.Now()
	if err := g.TrainOn(newEnv); err != nil {
		return r, fmt.Errorf("prepare: %w", err)
	}
	r.TrainSeconds = time.Since(start).Seconds()

	// Measure the trained policy: run the control loop, track SLA
	// satisfaction on every interval, and report the settled means of
	// the last quarter of the horizon (the Fig 9 idiom).
	e, err := newEnv(seed + 1000)
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

// Run executes every grid cell across the shared bounded worker pool
// and returns one Result per cell in deterministic seed-major order
// regardless of scheduling. A failing cell records its error in the
// row and does not stop the rest of the grid; the lowest failing
// cell's error is also returned after all cells ran.
func Run(cfg Config) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type cell struct {
		seed int64
		tier Tier
		mix  Mix
		topo Topo
		pl   Placement
	}
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
	var cells []cell
	for _, seed := range cfg.Seeds {
		for _, tier := range cfg.Tiers {
			for _, mix := range cfg.Mixes {
				for _, topo := range topos {
					if topo.Nodes <= 1 {
						cells = append(cells, cell{seed, tier, mix, topo, Placement{}})
						continue
					}
					for _, pl := range pls {
						cells = append(cells, cell{seed, tier, mix, topo, pl})
					}
				}
			}
		}
	}
	results := make([]Result, len(cells))
	// A failing cell must not stop the rest of the grid — every row
	// carries its own Error field and the JSONL writer emits all of
	// them — so cell errors are recorded in the rows rather than
	// returned to the pool (pool.ForEach stops claiming new work once
	// a closure errors). workers <= 0 selects GOMAXPROCS inside
	// ForEach.
	pool.ForEach(len(cells), cfg.Workers, func(i int) error {
		c := cells[i]
		r, err := runCell(cfg, c.seed, c.tier, c.mix, c.topo, c.pl)
		if err != nil {
			r.Error = err.Error()
		}
		results[i] = r
		return nil
	})
	for i := range results {
		if results[i].Error != "" {
			return results, fmt.Errorf("sweep: cell %d (%s/%s/seed %d): %s",
				i, cells[i].tier.Name, cells[i].mix.Name, cells[i].seed, results[i].Error)
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
