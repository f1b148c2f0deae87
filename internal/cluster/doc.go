// Package cluster generalizes the single-node GreenNFV model to a
// heterogeneous multi-node fleet with service-function-chain routing
// between hosts — the "multi-node datacenter scale-out" ROADMAP item,
// following the joint placement + path-allocation formulation of
// Tajiki et al. (arXiv:1710.02611).
//
// A Topology is a list of NodeSpecs (each a full perfmodel.Config, so
// core counts, LLC geometry, and power envelopes differ per host)
// joined by one LinkModel (per-node-pair bandwidth, one-way hop
// latency, transfer watts per Gb/s). A Workload is a list of chains
// with offered traffic plus a Hop DAG: inter-chain packet flows that
// cross the fabric whenever placement splits their endpoints.
//
// EvaluateClusterInto is the cluster analogue of
// perfmodel.EvaluateInto and keeps its contract: caller-owned Result
// with capacity-reused scratch, no steady-state allocations, and
// bit-exact determinism. Cluster energy is Σ node power × window plus
// the link transfer cost; delivered throughput derates when a node
// pair's cross traffic exceeds the link bandwidth, and chains whose
// accumulated cross-node latency exceeds the workload's budget are
// excluded from SLA-credited throughput.
//
// # Single-node parity
//
// A node hosting exactly one chain evaluates that chain's knobs
// through the node model untouched and copies the chain totals as
// the node totals, so a 1-node Homogeneous topology is bit-for-bit
// the existing single-node path (pinned by TestSingleNodeReduction
// here and the ClusterEnv parity test in internal/env). Co-located
// chains get a node-wide CAT rescale of their LLC fractions when the
// node's cache is oversubscribed, and the node's power aggregates
// every hosted chain's busy cores through the same utilization tail
// the single-node model uses.
//
// # Partial results
//
// EvaluateClusterInto does not stop at the first failing chain: it
// attempts every chain, so per-chain results survive an individual
// chain failure.
package cluster
