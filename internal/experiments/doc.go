// Package experiments reproduces every figure of the paper's
// evaluation (there are no numbered tables): the §3 micro-benchmarks
// (Figures 1–4), the SLA training curves (Figures 6–8), the
// controller comparison (Figure 9), the fixed-SLA time series
// (Figure 10) and the amortized energy-saving curve (Figure 11),
// plus ablation studies beyond the paper. Each driver returns the
// rows/series the paper plots; renderers emit aligned ASCII tables
// and CSV.
//
// # Concurrency and determinism
//
// The whole suite is byte-diffable: every driver is deterministic
// given its seeds, map-ordered outputs are sorted before rendering,
// and the cell formatter's integer fast path is byte-identical to
// the fmt %.Nf it replaced. Parallelism never changes bytes — the
// Figure 1–4 grids run through perfmodel.BatchEvaluate and the
// Figure 9/10/11 controller pipelines through pool.ForEach, both
// order-preserving and bit-identical at any worker count; FigCluster
// is a sweep.Run grid plus a formatter. Training-curve figures (6–8)
// use the deterministic round-robin Ape-X mode, never the parallel or remote modes. The
// figure-output byte-diff against the previous PR is the
// regression gate every perf change must pass.
package experiments
