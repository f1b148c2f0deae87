// Package perfmodel is the simulated testbed: an analytic performance
// and energy model that maps (resource knobs, traffic, chain
// composition) to (throughput, LLC misses, CPU utilization, power,
// energy). It substitutes for the paper's physical servers — the six
// Xeon E5-2620 v4 nodes with X540 NICs and a Yokogawa power meter —
// and is calibrated so the §3 micro-benchmarks (paper Figures 1–4)
// reproduce in shape.
//
// Both the fast RL environment (internal/env) and the experiment
// harness evaluate through this model, so the policies GreenNFV
// learns and the numbers the benchmarks report come from the same
// physics.
//
// # Paper mapping
//
//   - Evaluate/EvaluateInto: the end-to-end knobs→measurement map
//     behind every figure; calibration targets Figures 1–4.
//   - EvalOptions: the platform variants of the Figure 9 comparison
//     (busy-poll vs poll/callback mix, C-state policy).
//   - ChainSpec presets (calibration.go): the paper's evaluation
//     chains.
//
// # Concurrency and determinism
//
// Evaluation is a pure function of its inputs: same knobs, traffic
// and options give bit-identical results, which is what keeps the
// recorded figure outputs byte-identical across PRs. EvaluateInto is
// the zero-alloc path — the caller owns the PerNF scratch and the
// steady state allocates nothing (Evaluate is a convenience wrapper
// that allocates fresh results). Config and ChainSpec values are
// read-only after construction and safe to share between goroutines.
package perfmodel
