// Package serve is the policy-serving control plane: the runtime that
// takes a trained GreenNFV policy out of the test harness and puts it
// in front of live traffic, in the controller/speaker split of
// metallb — one controller daemon (cmd/greennfvd) holding the policy,
// one node agent (cmd/greennfv-agent) per chain-hosting server
// applying knob configurations to its local dataplane.
//
// # Topology and protocol
//
// Node agents register with the controller over rpcutil (framed TCP;
// the four messages are fixed big-endian layouts, rpc.go) and then
// report each control interval: observation vector and offered
// traffic. The controller answers with the next
// knob configuration — the policy's greedy action decoded to knobs,
// rate-limited against the node's previous configuration and vetted
// by the SLA guardrail. Registration issues a per-node lease epoch
// (the zombie-fencing pattern of the training plane): reports from a
// superseded epoch are rejected fatally, reports from an unknown node
// are rejected retryably, and a controller restart simply makes the
// fleet re-register. A node ID is 1 to 255 bytes (MaxNodeIDLen): the
// layouts carry its length in a byte, and the controller keeps every
// registered ID as a map key.
//
// # Safety invariant
//
// No config is ever applied that is outside the knob bounds or that
// the performance model predicts would violate the node's SLA. Every
// proposal — from the policy, the last-known-good store, or the
// heuristic fallback — passes through a Guardrail before it touches a
// node; a proposal that fails every rung makes the agent hold its
// current configuration rather than apply something unvetted. The
// guardrail property test pins this invariant; the chaos e2e pins it
// under partition, controller kill and corrupt reload.
//
// # Degradation ladder
//
// Fresh policy → last-known-good config → heuristic fallback
// (control.Heuristic, Algorithm 1) → hold. The controller walks the
// ladder when the guardrail rejects the policy's proposal, or when the
// policy's action is not finite (NaN weights, or activations an extreme
// observation overflowed) and so proposes nothing; the agent
// walks it locally when the controller is unreachable or its configs
// have gone stale, so a partitioned node keeps serving safely and
// reconverges to policy-driven configs within one heartbeat window of
// the partition healing.
//
// # Sharding and the report fast path
//
// The controller is built to take a whole fleet reporting at once.
// Per-node state lives in lock-striped shards (FNV-1a of the node ID
// over a fixed shard count); a shard's mutex guards only its lookup
// maps, while each node record carries its own mutex for the serving
// decision — so two nodes never contend, even hash neighbours. The
// policy sits behind an atomically swapped immutable snapshot:
// reports read it lock-free, and only ReloadPolicy takes the writer
// path (validate, then swap a new snapshot with a bumped version).
// Each in-flight report draws pooled inference scratch — a private
// policy replica (ddpg.Policy, inference-only) plus action/knob
// buffers — because the actor's forward pass reuses per-network scratch
// and cannot be shared. A replica older than the snapshot refreshes in
// place from the snapshot's actor frame (nn LoadParams: no allocation);
// it is built from that frame (ddpg.PolicyFromFrame) only when it is the
// scratch's first or a reload changed the hidden widths. The
// greedy action consumes no randomness, so a node's decision depends
// only on its own history and the snapshot: concurrent serving is
// bit-for-bit identical to serial (the fleet harness pins this).
//
// # Metrics
//
// Controller and agent expose their serving ledgers for Prometheus
// through stats.Registry: every counter as
// greennfv_serve_<name>_total / greennfv_agent_<name>_total, gauges
// for registered nodes, policy version and the state journal's size
// on disk, and a report-latency histogram
// (greennfv_serve_report_latency_seconds) that times every report,
// served or rejected. Conservation laws tie the counters together:
// configs_pushed equals the policy- plus last-good-sourced replies,
// and fallback_activations counts only holds (a last-good recovery is
// a push, not a fallback). reports_rejected counts reports answered
// with an error (no lease, stale epoch, wrong dimension, NaN or Inf in
// the observation or traffic, policy failure) — none of which reach
// the policy. Persistence shows as state_journal_appends,
// state_snapshots and state_persist_errors; a
// greennfv_serve_state_journal_bytes that only grows is a journal that
// is not compacting. The transport shows beside open_connections as
// greennfv_serve_rpc_{calls,rejected,bytes_in,bytes_out}_total
// (rpcutil.Server.Stats): rejected moving means something on the agent
// port is not an agent, and bytes_in over calls is what a report costs
// on the wire. Both daemons serve the registry at /metrics (-metrics
// flag).
//
// # Crash safety
//
// Controller state — the serving policy's policy-only form (its
// checkpoint's policy section, ~31 KB at the default topology: the
// training state behind it is never kept), its version, and each
// node's last-known-good config — lives in two files. The snapshot at
// StatePath is the whole state, written through atomicio (magic
// "GNFVSRV2", temp+fsync+rename, CRC). The journal at
// StatePath+".journal" (magic "GNFVSRJ1") extends it: a header naming
// the snapshot it belongs to (that snapshot's payload length and
// CRC32), then one CRC-framed "set node = knobs" record per
// last-known-good change, ~150 bytes in a fixed binary layout.
//
// Both files carry one record format, the change record, big-endian:
//
//	u32 idLen | id (1..MaxNodeIDLen bytes) | u32 n |
//	n × knobs (f64 CPUShare, f64 FreqGHz, f64 LLCFraction,
//	           i64 DMABytes, i64 Batch: 40 bytes)
//
// A journal record's body is exactly one. The snapshot's payload is
//
//	i64 policyVersion (>= 1; boot is 1) | u32 blobLen | blob |
//	one change record per node, to the end, IDs strictly ascending
//
// so a given state always encodes to the same bytes, and one decoder
// reads both files. Every length is checked against the bytes present
// before anything is sized by it. Load refuses a version below 1, a
// blobLen past the end, an empty or over-long node ID, an ID out of
// order or repeated, a knob count the bytes do not hold, and trailing
// bytes that are not a whole record. A snapshot or journal under
// another magic is refused with atomicio's error, which names the
// magic found and the one wanted, and Load's error names the file.
//
// What is durable when a report returns: everything it decided. A
// report whose vetted config differs from the node's last-known-good
// appends one record and fsyncs it before the reply is sent; a report
// that changes nothing touches no file. There is no background
// flusher, timer or staleness window — the cost of a change is one
// small write and one fsync, independent of fleet size and of the
// policy.
//
// The snapshot is rewritten only where the blob or the base changes:
// ReloadPolicy, Close, the first change of a controller that booted
// without a state file, recovery after an unclean shutdown, the change
// after a failed write (state_persist_errors counts the failure,
// serving continues, the next change heals with a full snapshot), and
// compaction once the journal has grown past the snapshot's own size.
// Every snapshot retires the journal, so a clean Close leaves exactly
// one self-contained file, readable on its own.
//
// Recovery: StateStore.Load reads the snapshot, then applies the
// journal on top if and only if its header names that snapshot. A
// journal left by a crash between publishing a snapshot and retiring
// the old journal names the previous snapshot and is ignored — the new
// snapshot already holds everything in it. A final record that is
// short or fails its CRC is a torn tail and is dropped: its fsync
// never finished, so its reply was never sent. A failing record with
// bytes after it, a malformed record body or a wrong journal magic is
// corruption and fails Load, exactly as a corrupt snapshot does. A
// controller that replayed any record folds the journal into a fresh
// snapshot before it serves, so appends never resume on an old
// journal. The restarted controller resumes with the policy it was
// last serving (hot reloads included) and the fleet re-registers
// transparently.
//
// Hot policy reload opens the new checkpoint and streams it through
// ddpg.ReadPolicy, which reads the policy section alone and checks it
// before an atomic swap: the magic; the config's width count and the
// actor frame's length against the file's size before anything is sized
// by them; the Config, validated as a new agent's would be; the actor
// frame's header against that topology, with no network built; the
// length and CRC32 the header records for the whole file; and, here, the
// dimensions against the node spec. A corrupt or mismatched checkpoint
// is rejected loudly without dropping the serving loop. Boot from
// PolicyPath reads the file the same way, and resume passes the
// persisted form through the same reader. What is kept is the section,
// read into one exact-size slice — the policy-only form, which the
// snapshot holds beside its Config and the state file persists as it is
// (Save writes it as one piece of the payload, never copied). No
// network is decoded at reload: the critics, targets, optimiser moments,
// noise and replay behind the section pass through the CRC in a pooled
// buffer, so a reload's memory does not grow with them
// (TestReloadCostIgnoresTrainingState), and a reload allocates about
// 1.2 forms (TestServingHoldsPolicyOnly). Pooled replicas
// refresh from the snapshot's actor frame in place; a scratch with no
// replica, or one of other hidden widths, gets one built from that frame
// (ddpg.PolicyFromFrame) — the checkpoint is read once per boot or
// reload, not once per replica.
//
// A reload is one of three outcomes. Rejected: an error, and the old
// policy serves at its old version. Swapped: nil, and the new version
// serves and is persisted. Swapped but not persisted: the state write
// after the swap failed, which counts in state_persist_errors and
// returns an error matching ErrReloadNotPersisted — the new version
// serves, a restart before the next successful snapshot would resume
// the old one, and the next state change retries with a full snapshot.
package serve
