// Package experiments reproduces every figure of the paper's
// evaluation (there are no numbered tables): the §3 micro-benchmarks
// (Figures 1–4), the SLA training curves (Figures 6–8), the
// controller comparison (Figure 9), the fixed-SLA time series
// (Figure 10) and the amortized energy-saving curve (Figure 11),
// plus ablation studies beyond the paper. Each driver returns the
// rows/series the paper plots; renderers emit aligned ASCII tables
// and CSV.
//
// # One figure harness
//
// Every trained figure — 6 to 11 and the actor, knob and reward
// ablations — is a list of arms plus a formatter. An arm is a
// control.Controller, the environment factory it trains on (its SLA
// and frozen knobs), a deploy seed and a deploy length; runArms
// prepares and deploys them all over one pool.ForEach, deploying
// through control.Deploy. Figures 9 and 11 format settled means of
// the series, Figure 10 the series, and train-only arms (deploy
// length 0) their training snapshots. AblationPER stays outside: it
// trains a single DDPG agent, not an Ape-X controller, and porting it
// would change its table. FigCluster is a sweep.Run grid.
//
// # Concurrency and determinism
//
// The whole suite is byte-diffable: every driver is deterministic
// given its seeds, map-ordered outputs are sorted before rendering,
// and the cell formatters are the strconv call fmt's %.Nf makes. The
// Figure 1–4 grids are serial loops, one perfmodel.Evaluate per
// evaluated point. Parallelism never changes bytes — the arms run
// through pool.ForEach, which is order-preserving at any worker
// count, and each arm owns its controller. Trained figures use the
// deterministic round-robin Ape-X mode, never the parallel or remote
// modes. The figure-output byte-diff against the previous commit
// (scripts/figdiff.sh) is the regression gate every perf change must
// pass.
package experiments
