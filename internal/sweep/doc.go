// Package sweep is the multi-seed, multi-scenario experiment harness:
// it trains one GreenNFV controller per (seed × SLA tier × traffic
// mix) grid cell over the shared bounded worker pool and emits one
// JSON row per cell, so sensitivity studies — how robust is each SLA
// model across seeds and offered loads — and new scenarios run from
// one entry point (cmd/experiments -sweep) instead of ad-hoc figure
// drivers.
//
// # JSONL row schema
//
// WriteJSONL emits one compact JSON object per grid cell (one line
// per cell, seed-major order). The schema is a stable contract —
// downstream figure drivers consume these rows — and changes to it
// must stay backward-compatible (add fields, never rename or repurpose
// them). Fields, in emission order:
//
//   - "seed" (int): the training seed of this cell.
//   - "sla" (string): the SLA tier's grid name, e.g. "maxT-2000J",
//     "minE-7.5G", "ee" (see DefaultTiers).
//   - "sla_detail" (string): the human-readable SLA description from
//     sla.SLA.Describe, e.g. "max throughput s.t. energy <= 2000 J".
//   - "traffic" (string): the traffic mix's grid name — "standard",
//     "light", "heavy" (see DefaultMixes).
//   - "topology" (string, omitted when the grid has no topology
//     axis): the Topo axis value's name — "single", "hetero-4",
//     "hetero-8" with DefaultTopos. Rows of a grid with empty
//     Config.Topos never carry this key, so pre-topology consumers
//     see unchanged rows.
//   - "nodes" (int, omitted with "topology"): the cell's cluster
//     size; 1 for an explicit single-node topology axis value.
//   - "placement" (string, omitted on single-node rows): the
//     placement-policy axis value for multi-node cells — "drl-head"
//     (the agent's per-chain placement logit head), "ffd+swap", or
//     "relax+round" (see DefaultPlacements). Single-node cells skip
//     the placement axis entirely: there is nowhere to place.
//   - "train_steps" (int): Ape-X training budget of the cell.
//   - "actors" (int): Ape-X actor count used in training.
//   - "control_steps" (int): post-training measurement horizon.
//   - "throughput_gbps" (float): settled mean throughput over the
//     last quarter of the control horizon (the Figure 9 idiom).
//   - "energy_j" (float): settled mean energy per 10 s measurement
//     window, same settling rule.
//   - "efficiency_gbps_per_kj" (float): throughput_gbps /
//     (energy_j/1000) — the paper's λ; 0 when energy_j is 0.
//   - "violation_rate" (float): fraction of ALL control intervals
//     (not just settled ones) whose measurement violated the SLA.
//   - "mean_violation" (float): mean violation magnitude over
//     violating intervals (sla.Tracker.MeanViolation); 0 when none.
//   - "nodes_used" (int, omitted on single-node rows): how many
//     cluster nodes host at least one chain on the last measured
//     interval (cluster.Result.NodesUsed) — the consolidation signal.
//   - "link_energy_j" (float, omitted on single-node rows): settled
//     mean inter-node transfer energy per measurement window, the
//     link share of "energy_j" (cluster.Result.LinkEnergyJ).
//   - "train_seconds" (float): wall-clock training time spent on this
//     row; 0 on a row that shares an earlier cell's training (see
//     "Planning and shared cells"), so the sum over rows is the
//     training time the grid actually spent.
//   - "error" (string, omitted when empty): the cell's failure, if
//     any; a failing cell still emits its row with the identity and
//     budget fields filled.
//   - "kernels" (string): the internal/nn kernel set the process ran,
//     nn.KernelSet — "avx2+fma" or "go". Trained rows depend on it in
//     their last bits (internal/nn doc, "Kernel contract"), so a row
//     made on another CPU says so.
//
// # Concurrency and determinism
//
// Cells run concurrently (Config.Workers, 0 = GOMAXPROCS) over
// internal/pool, but results are returned — and rows emitted — in
// deterministic seed-major grid order regardless of scheduling.
// Every cell trains round-robin, so each row — cluster rows included —
// is deterministic given its seed. A failing cell records its error in
// its own row (and in the rows that share its training) without
// stopping the rest of the grid.
//
// # Planning and shared cells
//
// Run plans before it trains. Every pinned Placement is resolved once
// per (mix, cluster size, policy) — one env.NewCluster with the
// policy, which solves and vets, and one Assignment read-back —
// instead of once in each of a cell's Actors+1 environments, and the
// cell's environments are then built from that resolved assignment
// (env.ClusterConfig.Assignment). A policy that fails to resolve fails
// its own rows, with the error NewCluster gave, and nothing else.
//
// A pinned multi-node cell is keyed by exactly what its environments
// are constructed from: (seed, tier index, mix index, cluster size,
// resolved assignment). Such a cell consults nothing else — the
// policy's name is a row label — and trains round-robin, so two cells
// with equal keys are one deterministic computation. Run trains the
// first of them and fills the others' rows by copy, each
// under its own "topology" and "placement" names, with
// "train_seconds" 0: no training was spent on that row. Every other
// field equals, bit for bit, what the cell would have measured had it
// been trained (TestSweepSharesResolvedCells). On every instance this
// repo ships, "ffd+swap" and "relax+round" resolve to the same
// assignment — all six chains fit node 0, and both heuristics find
// that packing — so those two rows are one training: 1 cell in 3 of a
// default-placement cluster grid, 3 of FigCluster's 9, 60 of
// -sweep-cluster's 210.
//
// Only pinned multi-node cells qualify: neither a DRL-head nor a
// single-node cell has a resolved assignment to compare, so each gets
// a key of its own and is always trained. Sharing is not an option and
// has no switch: the key is the environment's inputs, so equal key ⇒
// equal row holds by construction.
//
// # Topology and placement axes
//
// Config.Topos adds cluster size as a grid axis (cmd/experiments
// -sweep -sweep-cluster): each multi-node Topo crosses with every
// Config.Placements entry and trains control.GreenNFV on a
// heterogeneous cluster hosting the FigCluster six-chain
// service-function path, with each chain carrying the cell's traffic
// mix at half rate. Single-node Topo entries train the same
// controller on the paper's one-host environment; one cell runner
// serves both and adds the cluster extras when the environment has
// more than one node. An empty Topos keeps the original grid and the
// original rows, byte for byte.
package sweep
