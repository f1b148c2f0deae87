package serve

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"greennfv/internal/env"
	"greennfv/internal/nn"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rpcutil"
	"greennfv/internal/stats"
)

// Serving counter names (stats.Counters keys), shared by controller
// and agent ledgers.
const (
	// CounterConfigsPushed counts vetted configurations emitted. It is
	// conserved against the per-source counters:
	// configs_pushed = configs_source_policy + configs_source_last_good.
	CounterConfigsPushed = "configs_pushed"
	// CounterFallbackActivations counts intervals where the node
	// actually left the vetted-config path: controller-side a Hold
	// reply (nothing survived the guardrail), agent-side a descent
	// into the local ladder. A last-known-good recovery is NOT a
	// fallback — the node never left vetted configs.
	CounterFallbackActivations = "fallback_activations"
	// CounterGuardrailRejections counts proposals the guardrail
	// refused, one per rejected proposal (a report whose policy AND
	// last-known-good rungs both fail counts twice).
	CounterGuardrailRejections = "guardrail_rejections"
	// CounterHeartbeatMisses counts lease expiries (controller) or
	// failed report calls (agent).
	CounterHeartbeatMisses = "heartbeat_misses"
	// CounterStatePersistErrors counts failed controller-state writes
	// (serving continues; the next state change retries with a full
	// snapshot).
	CounterStatePersistErrors = "state_persist_errors"
	// CounterStateJournalAppends counts config changes made durable as
	// one journal record; CounterStateSnapshots counts full state-file
	// writes (reload, close, recovery, compaction, healing).
	CounterStateJournalAppends = "state_journal_appends"
	CounterStateSnapshots      = "state_snapshots"
	// CounterReportsRejected counts reports answered with an error:
	// no lease, stale epoch, malformed observation or traffic, policy
	// failure.
	CounterReportsRejected = "reports_rejected"
	// CounterSourcePolicy, CounterSourceLastGood and CounterSourceHold
	// count report replies by the ladder rung that produced them.
	CounterSourcePolicy   = "configs_source_policy"
	CounterSourceLastGood = "configs_source_last_good"
	CounterSourceHold     = "configs_source_hold"
)

// Config assembles a Controller.
type Config struct {
	// Spec is the node environment contract (chain, workload, SLA) —
	// the same JSON spec the training plane ships to remote actors.
	// The controller uses it to size the policy, decode actions and
	// predict proposals; agents use it to build their local env.
	Spec apex.ActorSpec
	// PolicyPath is the boot policy checkpoint (ddpg.Agent.SaveState
	// without replay, greennfv -save-policy). Ignored when StatePath resumes a persisted
	// policy.
	PolicyPath string
	// StatePath, when set, persists controller state (the policy's
	// policy-only form + last-known-good configs) crash-safely across
	// restarts: a snapshot at this path plus a journal at
	// StatePath+".journal".
	StatePath string
	// LeaseWindow is the heartbeat window: a node silent for longer
	// loses its lease and must re-register. Zero defaults to 10s.
	LeaseWindow time.Duration
	// Now injects the controller clock used for lease stamps and
	// report-latency measurement (nil: time.Now). Tests drive it so
	// lease expiry is deterministic instead of sleep-based.
	Now func() time.Time
}

// ReadSpec loads the node spec file greennfvd and greennfv-agent share
// (greennfv -write-spec) through apex.DecodeActorSpec, which refuses a
// spec whose environment half is invalid. The training cadence does
// not matter for serving, and the file carries none.
func ReadSpec(path string) (apex.ActorSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return apex.ActorSpec{}, err
	}
	defer f.Close()
	return apex.DecodeActorSpec(f)
}

// nodeRec is the controller's per-node record: lease, heartbeat,
// limiter baseline and last-known-good config. Its own mutex guards
// the serving decision, so reports from different nodes never contend.
// A node resumed from state but not yet registered has a record with
// only lastGood set.
type nodeRec struct {
	mu         sync.Mutex
	epoch      uint64
	registered bool
	lastReport time.Time
	limiter    *Limiter
	// lastGood is written holding both mu and the controller's
	// fleetMu, so either lock is enough to read it. A stored slice is
	// never written again, only replaced.
	lastGood []perfmodel.NFKnobs
}

// policySnapshot is the immutable serving policy: reports load it
// with one atomic read, reload/persist swap it on the writer path.
// blob is the checkpoint's policy-only form (ddpg.PolicyReader.Read),
// what the state file persists, frame its actor frame (a slice of blob)
// and cfg the Config the read checked it against. It holds no network: a
// stale replica reads frame in place, and a missing one, or one of
// other widths, is built from frame and cfg (reportScratch.sync).
type policySnapshot struct {
	blob    []byte
	frame   []byte
	version int
	cfg     ddpg.Config
}

// reportScratch is one in-flight report's private inference state: a
// greedy actor replica (a forward pass reuses per-network scratch, so
// concurrent reports need distinct replicas), the action/knob decode
// buffers, and a guardrail (whose prediction scratch is equally
// single-owner). Pooled; a replica older than the current policy
// snapshot is refreshed lazily on checkout.
type reportScratch struct {
	version int
	actor   *ddpg.Policy
	action  []float64
	knobs   []perfmodel.NFKnobs
	guard   Guardrail
}

// Controller is the serving-plane brain: it holds the policy, leases
// the fleet, and turns node observations into vetted knob configs.
// All methods are goroutine-safe. Per-node state lives in one record
// per node, each with its own mutex; the policy sits behind an
// atomically-swapped immutable snapshot, and each in-flight report
// runs on pooled private scratch — so concurrent reports from
// different nodes share only the fleet map's lock, for one lookup.
type Controller struct {
	cfg      Config
	counters *stats.Counters
	probe    *env.Env // decodes actions, sizes buffers; never stepped

	policy  atomic.Pointer[policySnapshot]
	scratch sync.Pool // *reportScratch
	// fleetMu guards nodes and the writes of each record's lastGood.
	// It is a leaf: taken after a record's mu or persistMu, and never
	// held across a decision or a persist.
	fleetMu   sync.Mutex
	nodes     map[string]*nodeRec
	nextEpoch atomic.Uint64

	reportLatency *stats.PromHistogram

	// persistMu serializes state writes (journal appends and
	// snapshots alike); reloadMu serializes policy reads and swaps (so
	// concurrent reloads share the reader and cannot race the version
	// bump). Neither is ever held while a nodeRec mutex is wanted.
	persistMu sync.Mutex
	reloadMu  sync.Mutex
	// reader reads every checkpoint file, under reloadMu once the
	// controller is shared. NewController allocates it, so that a
	// resumed controller's first reload allocates no buffer either.
	reader *ddpg.PolicyReader
	store  stateStore
	// snapshotDue (under persistMu) is set by a failed state write:
	// disk and memory may disagree by more than one record, so the
	// next change writes the whole state instead of appending.
	snapshotDue bool

	srvMu sync.Mutex
	srv   *rpcutil.Server
}

// NewController builds a controller: policy loaded and validated
// against the node spec, persisted state resumed when present.
func NewController(cfg Config) (*Controller, error) {
	if cfg.LeaseWindow <= 0 {
		cfg.LeaseWindow = 10 * time.Second
	}
	probe, err := cfg.Spec.BuildEnv(0)
	if err != nil {
		return nil, fmt.Errorf("serve: node spec: %w", err)
	}
	c := &Controller{
		cfg:           cfg,
		counters:      stats.NewCounters(),
		probe:         probe,
		reportLatency: stats.NewPromHistogram(stats.DefLatencyBuckets),
		nodes:         make(map[string]*nodeRec),
		reader:        new(ddpg.PolicyReader),
	}

	var resumed *ControllerState
	replayed := 0
	if cfg.StatePath != "" {
		store, err := OpenStateStore(cfg.StatePath)
		if err != nil {
			return nil, err
		}
		c.store = store
		if resumed, replayed, err = store.load(); err != nil {
			return nil, err
		}
	}
	switch {
	case resumed != nil:
		snap, err := c.validatePolicy(ddpg.LoadPolicy(resumed.PolicyBlob))
		if err != nil {
			return nil, fmt.Errorf("serve: persisted policy in %s: %w", cfg.StatePath, err)
		}
		snap.version = resumed.PolicyVersion
		c.policy.Store(snap)
		for id, ks := range resumed.LastGood {
			c.nodes[id] = &nodeRec{limiter: DefaultLimiter(), lastGood: ks}
		}
	case cfg.PolicyPath != "":
		snap, err := c.readPolicyFile(cfg.PolicyPath)
		if err != nil {
			return nil, err
		}
		snap.version = 1
		c.policy.Store(snap)
	default:
		return nil, errors.New("serve: controller needs a policy (PolicyPath or persisted state)")
	}
	if replayed > 0 {
		// The predecessor died without Close. Fold what its journal
		// held into a fresh snapshot before serving, so appends never
		// resume on an old journal.
		if err := c.snapshot(); err != nil {
			return nil, fmt.Errorf("serve: recover state: %w", err)
		}
	}
	return c, nil
}

// now reads the injected clock (time.Now by default).
func (c *Controller) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// validatePolicy takes what ddpg.PolicyReader.Read (boot and reload,
// streaming the file) or ddpg.LoadPolicy (resume, from the persisted
// form) returned — the section read into its policy-only form, checked
// up to the whole-file sum, the Config and the actor frame against the
// Config's topology — and checks the dimensions against the node spec.
// It is the gate boot, resume and hot reload all pass through. It
// returns the snapshot to serve, version unset: the Config and the policy-only form,
// which is what the state file persists; it decodes no network. What it
// keeps is the form's size, whatever the critic, targets, optimiser
// moments or replay behind the section weigh.
func (c *Controller) validatePolicy(acfg ddpg.Config, form []byte, err error) (*policySnapshot, error) {
	if err != nil {
		return nil, fmt.Errorf("serve: load policy: %w", err)
	}
	if acfg.StateDim != c.probe.StateDim() || acfg.ActionDim != c.probe.ActionDim() {
		return nil, fmt.Errorf("serve: policy dims %dx%d do not match node spec %dx%d",
			acfg.StateDim, acfg.ActionDim, c.probe.StateDim(), c.probe.ActionDim())
	}
	return &policySnapshot{blob: form, frame: ddpg.ActorFrame(form), cfg: acfg}, nil
}

// readPolicyFile opens a checkpoint file and validates it as a stream
// (validatePolicy) through the controller's reader, so no read allocates
// a buffer; a file that cannot be opened or sized is an error of its
// own. The caller holds reloadMu, or is NewController.
func (c *Controller) readPolicyFile(path string) (*policySnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: read policy: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("serve: read policy: %w", err)
	}
	return c.validatePolicy(c.reader.Read(f, info.Size()))
}

// getScratch checks out pooled report scratch whose actor replica
// matches snap (reportScratch.sync).
func (c *Controller) getScratch(snap *policySnapshot) (*reportScratch, error) {
	sc, _ := c.scratch.Get().(*reportScratch)
	if sc == nil {
		sc = &reportScratch{
			action: make([]float64, c.probe.ActionDim()),
			knobs:  make([]perfmodel.NFKnobs, c.probe.NumNFs()),
			guard: Guardrail{
				Model:  perfmodel.Default(),
				Chain:  c.probe.Chain(),
				Bounds: c.probe.Bounds(),
				SLA:    c.probe.SLA(),
			},
		}
	}
	if err := sc.sync(snap); err != nil {
		return nil, err
	}
	return sc, nil
}

// sync makes the scratch's replica serve snap. A replica of another
// version reads the snapshot's actor frame in place (LoadParams copies
// it into the network it has, allocating nothing); only a scratch with
// no replica yet, or one whose topology the frame does not fit, gets a
// replica built from the frame (ddpg.PolicyFromFrame). The frame passed
// the same check in validatePolicy, so that build does not fail; if it
// did, the report would fail and the scratch would not go back to the
// pool.
func (sc *reportScratch) sync(snap *policySnapshot) error {
	if sc.actor != nil && sc.version == snap.version {
		return nil
	}
	if sc.actor == nil || sc.actor.Actor.LoadParams(snap.frame) != nil {
		actor, err := ddpg.PolicyFromFrame(snap.cfg, snap.frame)
		if err != nil {
			return fmt.Errorf("serve: policy replica: %w", err)
		}
		sc.actor = actor
	}
	sc.version = snap.version
	return nil
}

// Start serves the controller RPC on addr (e.g. "127.0.0.1:7070";
// ":0" for an ephemeral port).
func (c *Controller) Start(addr string) error {
	srv, err := rpcutil.ServeHandlers(addr, c.Handlers())
	if err != nil {
		return err
	}
	c.srvMu.Lock()
	c.srv = srv
	c.srvMu.Unlock()
	return nil
}

// Handlers is the controller's RPC methods, keyed by the names agents
// call. Register is called at an agent's startup, and again after a
// controller restart or a lease expiry: each call issues a fresh epoch,
// fencing off any zombie agent still holding the previous one. Report
// is called once per control interval.
func (c *Controller) Handlers() map[string]rpcutil.Handler {
	return map[string]rpcutil.Handler{
		"Controller.Register": rpcutil.Method(c.register),
		"Controller.Report":   rpcutil.Method(c.report),
	}
}

// Addr reports the RPC listen address (after Start).
func (c *Controller) Addr() string {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	if c.srv == nil {
		return ""
	}
	return c.srv.Addr()
}

// Close writes a final state snapshot — which retires the journal, so
// a cleanly stopped controller leaves one self-contained state file —
// and stops the RPC server. Agents surviving the controller degrade
// locally and re-register when it returns.
func (c *Controller) Close() error {
	c.srvMu.Lock()
	srv := c.srv
	c.srv = nil
	c.srvMu.Unlock()
	err := c.snapshot()
	if srv != nil {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Counters exposes the controller's serving ledger.
func (c *Controller) Counters() *stats.Counters { return c.counters }

// PolicyVersion reports the serving policy version (bumped by every
// successful reload).
func (c *Controller) PolicyVersion() int {
	return c.policy.Load().version
}

// RegisteredNodes counts the nodes currently holding a live lease.
func (c *Controller) RegisteredNodes() int {
	n := 0
	c.eachRecord(func(rec *nodeRec) {
		if rec.registered {
			n++
		}
	})
	return n
}

// eachRecord calls f on every node record, holding that record's lock.
// The records are copied under fleetMu first, so fleetMu is not held
// while f runs.
func (c *Controller) eachRecord(f func(*nodeRec)) {
	c.fleetMu.Lock()
	recs := make([]*nodeRec, 0, len(c.nodes))
	for _, rec := range c.nodes {
		recs = append(recs, rec)
	}
	c.fleetMu.Unlock()
	for _, rec := range recs {
		rec.mu.Lock()
		f(rec)
		rec.mu.Unlock()
	}
}

// LastGood returns a copy of a node's last-known-good configuration
// (nil if none recorded).
func (c *Controller) LastGood(nodeID string) []perfmodel.NFKnobs {
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	if rec := c.nodes[nodeID]; rec != nil {
		return slices.Clone(rec.lastGood)
	}
	return nil
}

// RegisterMetrics exposes the controller on a Prometheus registry:
// every serving counter as `greennfv_serve_<name>_total`, the
// registered-node, policy-version and state-journal-size gauges, the
// transport's connection gauge and `greennfv_serve_rpc_*` counters, the
// report-latency histogram, and which nn kernel set this process runs
// inference on.
func (c *Controller) RegisterMetrics(reg *stats.Registry) {
	reg.RegisterCounterSet("greennfv_serve", "Serving control-plane events.", c.counters)
	reg.RegisterInfo("greennfv_nn_kernel_info",
		"Kernel set the CPU probe selected for policy inference: avx2+fma, or go (several times slower per decision) on a CPU or VM without AVX2 and FMA.",
		"set", nn.KernelSet())
	reg.RegisterGauge("greennfv_serve_registered_nodes",
		"Nodes currently holding a live lease.",
		func() float64 { return float64(c.RegisteredNodes()) })
	reg.RegisterGauge("greennfv_serve_policy_version",
		"Serving policy version (bumped by every hot reload).",
		func() float64 { return float64(c.PolicyVersion()) })
	// The RPC server exists only between Start and Close; outside it
	// every transport metric reads 0.
	transport := func(read func(*rpcutil.Server) float64) func() float64 {
		return func() float64 {
			c.srvMu.Lock()
			defer c.srvMu.Unlock()
			if c.srv == nil {
				return 0
			}
			return read(c.srv)
		}
	}
	reg.RegisterGauge("greennfv_serve_open_connections",
		"Open agent RPC connections (0 until Start).",
		transport(func(s *rpcutil.Server) float64 { return float64(s.ConnCount()) }))
	for _, m := range []struct {
		name, help string
		read       func(rpcutil.ServerStats) uint64
	}{
		{"calls", "Register and Report calls that reached their handler.",
			func(st rpcutil.ServerStats) uint64 { return st.Calls }},
		{"rejected", "Agent-port input refused before any handler: wrong preamble, malformed or oversized frame, unknown method, undecodable message. Moving means someone is sending garbage.",
			func(st rpcutil.ServerStats) uint64 { return st.Rejected }},
		{"bytes_in", "Bytes read from agents; over calls, what a report costs on the wire.",
			func(st rpcutil.ServerStats) uint64 { return st.BytesIn }},
		{"bytes_out", "Bytes written to agents.",
			func(st rpcutil.ServerStats) uint64 { return st.BytesOut }},
	} {
		reg.RegisterCounter("greennfv_serve_rpc_"+m.name+"_total", m.help,
			transport(func(s *rpcutil.Server) float64 { return float64(m.read(s.Stats())) }))
	}
	reg.RegisterGauge("greennfv_serve_state_journal_bytes",
		"Size of the state journal on disk (0 without one): falls to 0 at every snapshot, so a value that only grows is a journal that is not compacting.",
		func() float64 {
			if c.cfg.StatePath == "" {
				return 0
			}
			info, err := os.Stat(journalPath(c.cfg.StatePath))
			if err != nil {
				return 0
			}
			return float64(info.Size())
		})
	reg.RegisterHistogram("greennfv_serve_report_latency_seconds",
		"Report decision latency (lease check through reply).", c.reportLatency)
}

// ErrReloadNotPersisted marks a ReloadPolicy that swapped the new
// policy in but could not write the state file: the controller serves
// the new version, a restart before the next successful snapshot
// resumes the old one, and the next state change retries with a full
// snapshot. Every other ReloadPolicy error is a rejection.
var ErrReloadNotPersisted = errors.New("serve: reloaded policy is serving but not persisted")

// ReloadPolicy hot-swaps the serving policy from a checkpoint file:
// the file is streamed and its policy section validated first
// (validatePolicy: whole-file sum, Config, actor frame, dimensions),
// then swapped in as a new immutable snapshot — in-flight reports
// finish on the snapshot they loaded; later reports see the new one. A
// corrupt or mismatched checkpoint is rejected loudly and the current
// policy keeps serving untouched. A state write that fails after the
// swap counts as a persist error and returns ErrReloadNotPersisted.
func (c *Controller) ReloadPolicy(path string) error {
	c.reloadMu.Lock()
	snap, err := c.readPolicyFile(path)
	if err == nil {
		snap.version = c.policy.Load().version + 1
		c.policy.Store(snap)
	}
	c.reloadMu.Unlock()
	if err != nil {
		return fmt.Errorf("serve: reload rejected: %w", err)
	}
	if err := c.snapshot(); err != nil {
		c.counters.Inc(CounterStatePersistErrors)
		return fmt.Errorf("%w: v%d: %w", ErrReloadNotPersisted, snap.version, err)
	}
	return nil
}

// ExpireLeases revokes the lease of every node that has not reported
// within the lease window, counting each as a heartbeat miss, and
// returns how many were expired. The daemon calls this periodically;
// an expired node's next report fails with ErrUnregisteredNode and it
// re-registers transparently.
func (c *Controller) ExpireLeases(now time.Time) int {
	expired := 0
	cutoff := now.Add(-c.cfg.LeaseWindow)
	c.eachRecord(func(rec *nodeRec) {
		if rec.registered && rec.lastReport.Before(cutoff) {
			rec.registered = false
			rec.limiter.Reset()
			c.counters.Inc(CounterHeartbeatMisses)
			expired++
		}
	})
	return expired
}

// register implements the Register RPC.
func (c *Controller) register(args *RegisterNodeArgs, reply *RegisterNodeReply) error {
	if err := checkNodeID(args.NodeID); err != nil {
		return err
	}
	c.fleetMu.Lock()
	rec, ok := c.nodes[args.NodeID]
	if !ok {
		rec = &nodeRec{limiter: DefaultLimiter()}
		c.nodes[args.NodeID] = rec
	}
	c.fleetMu.Unlock()
	rec.mu.Lock()
	rec.registered = true
	// Allocated under rec.mu so concurrent registrations for the same
	// node leave the record fenced to the LAST registration's epoch.
	rec.epoch = c.nextEpoch.Add(1)
	rec.lastReport = c.now()
	rec.limiter.Reset()
	reply.Epoch = rec.epoch
	rec.mu.Unlock()
	reply.PolicyVersion = c.PolicyVersion()
	return nil
}

// report implements the Report RPC, and is where every report is
// accounted: its decision latency is observed whatever the outcome,
// and an error reply counts as a rejected report.
func (c *Controller) report(args *ReportArgs, reply *ReportReply) error {
	start := c.now()
	err := c.decide(start, args, reply)
	if err != nil {
		c.counters.Inc(CounterReportsRejected)
	}
	c.reportLatency.Observe(c.now().Sub(start).Seconds())
	return err
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// allFinite reports whether every element of vs is finite.
func allFinite(vs []float64) bool {
	for _, v := range vs {
		if !finite(v) {
			return false
		}
	}
	return true
}

// decide is one report's serving decision: lease check, input checks,
// policy action, limiter, guardrail, ladder. Reports from different
// nodes run concurrently end to end; reports from the same node
// serialize on its record.
func (c *Controller) decide(start time.Time, args *ReportArgs, reply *ReportReply) error {
	if err := checkNodeID(args.NodeID); err != nil {
		return err
	}
	c.fleetMu.Lock()
	rec := c.nodes[args.NodeID]
	c.fleetMu.Unlock()
	if rec == nil {
		return fmt.Errorf("%w %q: register first", ErrUnregisteredNode, args.NodeID)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if !rec.registered {
		return fmt.Errorf("%w %q: register first", ErrUnregisteredNode, args.NodeID)
	}
	if args.Epoch != rec.epoch {
		return fmt.Errorf("%w: node %q epoch %d superseded by %d",
			ErrStaleNodeEpoch, args.NodeID, args.Epoch, rec.epoch)
	}
	rec.lastReport = start
	if len(args.Obs) != c.probe.StateDim() {
		return fmt.Errorf("serve: observation dim %d, want %d", len(args.Obs), c.probe.StateDim())
	}
	for i, v := range args.Obs {
		if !finite(v) {
			return fmt.Errorf("serve: observation[%d] is %v", i, v)
		}
	}
	if tr := args.Traffic; !finite(tr.OfferedPPS) || !finite(tr.Burstiness) {
		return fmt.Errorf("serve: report traffic is not finite: %+v", tr)
	}
	if args.Traffic.OfferedPPS <= 0 {
		return fmt.Errorf("serve: report carries no traffic")
	}
	snap := c.policy.Load()
	reply.PolicyVersion = snap.version
	sc, err := c.getScratch(snap)
	if err != nil {
		return err
	}
	defer c.scratch.Put(sc)

	// Rung 1: fresh policy decision, rate-limited then vetted. A
	// non-finite action — a NaN-weight policy, or activations an extreme
	// observation overflowed — is no decision (the decode would read NaN
	// as mid-range knobs), so it is rejected like an unsafe proposal.
	if err := sc.actor.Greedy(args.Obs, sc.action); err != nil {
		return fmt.Errorf("serve: policy action: %w", err)
	}
	if allFinite(sc.action) {
		for i := range sc.knobs {
			sc.knobs[i] = c.probe.DecodeAction(sc.action[i*env.KnobsPerNF : (i+1)*env.KnobsPerNF])
		}
		limited := rec.limiter.Limit(sc.knobs)
		if _, err := sc.guard.Check(limited, args.Traffic); err == nil {
			reply.Config = c.recordLastGood(rec, args.NodeID, limited)
			reply.Source = SourcePolicy
			rec.limiter.Record(limited)
			c.counters.Inc(CounterConfigsPushed)
			c.counters.Inc(CounterSourcePolicy)
			return nil
		}
	}
	c.counters.Inc(CounterGuardrailRejections)

	// Rung 2: last-known-good, re-vetted under the node's current
	// traffic. A recovery here keeps the node on vetted configs, so it
	// is counted as a push, not a fallback.
	if lg := rec.lastGood; lg != nil {
		if _, err := sc.guard.Check(lg, args.Traffic); err == nil {
			reply.Config = lg
			reply.Source = SourceLastGood
			rec.limiter.Record(lg)
			c.counters.Inc(CounterConfigsPushed)
			c.counters.Inc(CounterSourceLastGood)
			return nil
		}
		c.counters.Inc(CounterGuardrailRejections)
	}

	// Nothing approved: the node holds its configuration and walks its
	// own ladder (heuristic rung runs agent-side, on the real env) —
	// the only controller-side outcome that is a fallback.
	reply.Hold = true
	reply.Source = SourceHold
	c.counters.Inc(CounterSourceHold)
	c.counters.Inc(CounterFallbackActivations)
	return nil
}

// recordLastGood stores a vetted config as the node's last-known-good
// and, if it changed, makes the change durable before returning — so
// before the report replies. It returns the stored slice, which the
// reply shares: a stored slice is never written again, only replaced.
// Called with rec.mu held, so it compares without another lock; it
// takes fleetMu (never another node's record) only to swap in a
// changed config, so the persist path cannot deadlock two concurrent
// reports.
func (c *Controller) recordLastGood(rec *nodeRec, nodeID string, ks []perfmodel.NFKnobs) []perfmodel.NFKnobs {
	if slices.Equal(rec.lastGood, ks) {
		return rec.lastGood
	}
	stored := append([]perfmodel.NFKnobs(nil), ks...)
	c.fleetMu.Lock()
	rec.lastGood = stored
	c.fleetMu.Unlock()
	if c.store != nil {
		if err := c.persistChange(nodeID, stored); err != nil {
			// Persistence failure must not take down serving; the
			// ledger records it and the next change retries.
			c.counters.Inc(CounterStatePersistErrors)
		}
	}
	return stored
}

// persistChange makes one node's new last-known-good durable: one
// fsynced journal record, or a whole snapshot when the store has
// nothing to append to, the journal is due for compaction, or an
// earlier write failed. Records are idempotent "set node = knobs" and
// a node's changes arrive in order (its rec.mu is held), so any
// interleaving with another node's append or with a snapshot leaves
// disk equal to memory.
func (c *Controller) persistChange(nodeID string, ks []perfmodel.NFKnobs) error {
	c.persistMu.Lock()
	defer c.persistMu.Unlock()
	if !c.snapshotDue {
		err := c.store.Append(nodeID, ks)
		if err == nil {
			c.counters.Inc(CounterStateJournalAppends)
			return nil
		}
		if !errors.Is(err, errSnapshotDue) {
			c.snapshotDue = true
			return err
		}
	}
	return c.snapshotLocked()
}

// snapshot writes the whole controller state through the store (no-op
// without one).
func (c *Controller) snapshot() error {
	if c.store == nil {
		return nil
	}
	c.persistMu.Lock()
	defer c.persistMu.Unlock()
	return c.snapshotLocked()
}

// snapshotLocked collects the fleet's last-known-good view under
// fleetMu and saves it with the serving policy. Caller holds persistMu.
func (c *Controller) snapshotLocked() error {
	lg := make(map[string][]perfmodel.NFKnobs)
	c.fleetMu.Lock()
	for id, rec := range c.nodes {
		if rec.lastGood != nil {
			lg[id] = rec.lastGood
		}
	}
	c.fleetMu.Unlock()
	snap := c.policy.Load()
	err := c.store.Save(&ControllerState{
		PolicyBlob:    snap.blob,
		PolicyVersion: snap.version,
		LastGood:      lg,
	})
	c.snapshotDue = err != nil
	if err == nil {
		c.counters.Inc(CounterStateSnapshots)
	}
	return err
}
