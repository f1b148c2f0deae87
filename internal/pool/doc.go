// Package pool is the one bounded worker pool the batch surfaces
// share: the experiments figure suite (Suite.run and AblationPER's
// two trainings) and the internal/sweep grid fan independent
// index-addressed work through ForEach instead of growing private
// copies of the same scheduling and error-selection logic.
//
// # Concurrency and determinism
//
// ForEach runs fn(i) for every index across at most `workers`
// goroutines (workers <= 0 selects GOMAXPROCS, workers > n clamps to
// n) and returns the lowest failing index's error. Once a failure is
// observed no new indices are claimed — every caller treats any
// error as fatal for the whole batch, so finishing the remainder
// would be wasted work — but the selection stays deterministic:
// indices are claimed in order, so the lowest failing index is always
// claimed (and its in-flight call completed) before any failure can
// stop the pool. Index-slot output (callers write results[i]) keeps
// result order independent of worker count; that is the property the
// byte-identical figure tables upstream are built on. fn must be
// safe to call concurrently for distinct indices.
package pool
