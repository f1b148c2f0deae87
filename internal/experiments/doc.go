// Package experiments reproduces every figure of the paper's
// evaluation (there are no numbered tables): the §3 micro-benchmarks
// (Figures 1–4), the SLA training curves (Figures 6–8), the
// controller comparison (Figure 9), the fixed-SLA time series
// (Figure 10) and the amortized energy-saving curve (Figure 11),
// plus ablation studies beyond the paper. Each driver returns the
// rows/series the paper plots; renderers emit aligned ASCII tables
// and CSV.
//
// # One figure suite
//
// Every trained figure — 6 to 11 and the ablations — is a method on a
// Suite built once from Options. A figure declares its arms as data
// (controller kind, SLA, frozen knobs, actors, training seed, deploy
// seed and length), and the suite builds each arm's controller and
// environments from those fields alone. As in the paper, each SLA model
// trains once and runs many times: a GreenNFV arm whose training inputs
// the suite has seen deploys that model, so all figures train 14 models
// for 21 GreenNFV arms. Other controllers are prepared per arm. The arms
// of one model deploy in order, in one pool job. AblationPER trains
// single DDPG agents, not arms; FigCluster is a sweep.Run grid.
//
// # Concurrency and determinism
//
// The whole suite is byte-diffable: every driver is deterministic
// given its seeds, map-ordered outputs are sorted before rendering,
// and the cell formatters are the strconv call fmt's %.Nf makes. The
// Figure 1–4 grids are serial loops, one perfmodel.Evaluate per
// evaluated point. Parallelism never changes bytes — the jobs run
// through pool.ForEach, which is order-preserving at any worker
// count, each job owns its controller, and a shared model renders the
// same table in any figure order. Trained figures use the
// deterministic round-robin Ape-X mode, never the remote one. The
// figure-output byte-diff against the previous commit
// (scripts/figdiff.sh) is the regression gate every perf change must
// pass.
package experiments
