// Package stats provides the small statistical toolkit GreenNFV uses to
// characterize network flows: online moments, the Double Exponential
// Smoothing predictor used by the EE-Pstate baseline, histograms with
// quantile queries and burstiness (index of dispersion) measurement.
//
// # Paper mapping
//
// The DES predictor is the traffic-forecasting half of the Iqbal &
// John EE-Pstate comparison controller (Figure 9); the burstiness
// estimator quantifies the index-of-dispersion axis of the traffic
// model.
//
// # Prometheus exposition
//
// Registry renders registered instruments in the Prometheus text
// exposition format (version 0.0.4) and serves them over HTTP: each
// Counters set expands to one `<prefix>_<name>_total` family, gauges
// read a float callback at scrape time, and PromHistogram emits
// cumulative `le` buckets plus `_sum`/`_count`. Metric names pass
// through SanitizeMetricName so ledger keys stay free-form. The
// writer is dependency-free by design — the scrape contract is pinned
// by golden-output tests, not by a client library.
//
// # Concurrency and determinism
//
// Everything here is allocation-free on the hot path, RNG-free and
// deterministic, and safe to embed by value. The measurement types
// are not goroutine-safe — each measurement loop owns its
// accumulators — with three exceptions built for the serving plane:
// Counters, PromHistogram and Registry are safe for concurrent use
// (scrapes race increments by design).
package stats
