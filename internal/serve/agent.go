package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"greennfv/internal/control"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rpcutil"
	"greennfv/internal/stats"
)

// NodeConfig assembles a NodeAgent.
type NodeConfig struct {
	// NodeID names this node to the controller.
	NodeID string
	// ControllerAddr is the controller's RPC address.
	ControllerAddr string
	// Spec is the node environment contract — the same spec the
	// controller was configured with. Rank seeds this node's load
	// process (spec.EnvSeed + 131*Rank), so a fleet built from one
	// spec sees distinct traffic.
	Spec apex.ActorSpec
	Rank int
	// CallTimeout bounds each controller RPC (0: DefaultCallTimeout).
	CallTimeout time.Duration
	// StaleAfter bounds how long the agent trusts its last-known-good
	// config without hearing from the controller; past it the ladder
	// drops straight to the heuristic fallback. Zero defaults to 30s.
	StaleAfter time.Duration
}

// NodeAgent is the per-node speaker: it observes its local dataplane
// (the env standing in for one chain-hosting server), reports to the
// controller, and applies vetted knob configs — degrading to local
// rungs of the ladder whenever the controller is unreachable, its
// lease is lost, or nothing the controller sent survives the local
// guardrail re-check. It never applies a config the guardrail has not
// approved; with every rung exhausted it holds the current one.
//
// Not goroutine-safe: one serving loop owns the agent. Run drives it
// on a ticker; tests call Step directly.
type NodeAgent struct {
	cfg      NodeConfig
	env      *env.Env
	guard    Guardrail
	fallback *control.Heuristic
	counters *stats.Counters

	conn        *rpcutil.Conn
	epoch       uint64
	registered  bool
	fenced      bool
	lastGood    []perfmodel.NFKnobs
	lastContact time.Time
	mode        string
	result      perfmodel.Result
	obs         []float64
	// report and reply are the tick's messages, kept across ticks: the
	// report shares obs, and apply copies the reply's config before the
	// next tick overwrites it.
	report ReportArgs
	reply  ReportReply

	// policyVersion is the controller's policy version as of the last
	// successful contact. Atomic: the metrics endpoint reads it while
	// the serving loop writes it.
	policyVersion atomic.Int64
}

// NewNodeAgent builds the agent and its local environment.
func NewNodeAgent(cfg NodeConfig) (*NodeAgent, error) {
	if err := checkNodeID(cfg.NodeID); err != nil {
		return nil, err
	}
	if cfg.ControllerAddr == "" {
		return nil, errors.New("serve: node agent needs a controller address")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 30 * time.Second
	}
	e, err := cfg.Spec.BuildEnv(cfg.Rank)
	if err != nil {
		return nil, fmt.Errorf("serve: node env: %w", err)
	}
	return &NodeAgent{
		cfg: cfg,
		env: e,
		guard: Guardrail{
			Model:  perfmodel.Default(),
			Chain:  e.Chain(),
			Bounds: e.Bounds(),
			SLA:    e.SLA(),
		},
		fallback: control.NewHeuristic(),
		counters: stats.NewCounters(),
		obs:      make([]float64, e.StateDim()),
		mode:     SourceHold,
	}, nil
}

// Mode reports the ladder rung that produced the last applied config
// (SourcePolicy, SourceLastGood, SourceFallback or SourceHold).
func (a *NodeAgent) Mode() string { return a.mode }

// LastResult reports the node's most recent measurement.
func (a *NodeAgent) LastResult() perfmodel.Result { return a.result }

// Counters exposes the agent's serving ledger.
func (a *NodeAgent) Counters() *stats.Counters { return a.counters }

// Env exposes the node's environment (tests observe applied knobs
// through it).
func (a *NodeAgent) Env() *env.Env { return a.env }

// RegisterMetrics exposes the agent on a Prometheus registry: every
// serving counter as `greennfv_agent_<name>_total` plus the
// last-observed policy-version gauge.
func (a *NodeAgent) RegisterMetrics(reg *stats.Registry) {
	reg.RegisterCounterSet("greennfv_agent", "Node-agent serving events.", a.counters)
	reg.RegisterGauge("greennfv_agent_policy_version",
		"Controller policy version at last successful contact.",
		func() float64 { return float64(a.policyVersion.Load()) })
}

// Close releases the controller connection.
func (a *NodeAgent) Close() error {
	a.dropConn()
	return nil
}

// dropConn tears down the controller connection so the next step
// redials; the lease survives (the controller fences by epoch, not by
// connection).
func (a *NodeAgent) dropConn() {
	if a.conn != nil {
		a.conn.Close()
		a.conn = nil
	}
}

// ensureRegistered dials and registers if needed.
func (a *NodeAgent) ensureRegistered() error {
	if a.conn == nil {
		conn, err := rpcutil.Dial(a.cfg.ControllerAddr, a.cfg.CallTimeout)
		if err != nil {
			return err
		}
		a.conn = conn
	}
	if a.registered {
		return nil
	}
	var reply RegisterNodeReply
	if err := a.conn.Call("Controller.Register", &RegisterNodeArgs{NodeID: a.cfg.NodeID}, &reply); err != nil {
		a.dropConn()
		return err
	}
	a.epoch = reply.Epoch
	a.registered = true
	a.policyVersion.Store(int64(reply.PolicyVersion))
	return nil
}

// Step runs one control interval at time now: observe, report, apply
// the best vetted config the ladder yields. The returned error is
// advisory (the degraded path it fell back to); the node has applied
// a safe configuration — or held — regardless.
func (a *NodeAgent) Step(now time.Time) error {
	if a.fenced {
		return fmt.Errorf("serve: node %q fenced: %w", a.cfg.NodeID, ErrStaleNodeEpoch)
	}
	a.env.ObserveInto(a.obs)
	tr := a.env.LastTraffic()

	remoteErr := a.stepRemote(now, tr)
	if remoteErr == nil {
		return nil
	}
	if a.fenced {
		// A replacement instance owns this node; do not touch it, not
		// even with local rungs.
		a.mode = SourceHold
		return remoteErr
	}
	a.stepLocal(now, tr)
	return remoteErr
}

// stepRemote reports to the controller and applies its config. A nil
// return means a config was applied (any rung); an error means the
// local ladder must take over this interval.
func (a *NodeAgent) stepRemote(now time.Time, tr perfmodel.Traffic) error {
	if err := a.ensureRegistered(); err != nil {
		a.counters.Inc(CounterHeartbeatMisses)
		return err
	}
	a.report = ReportArgs{NodeID: a.cfg.NodeID, Epoch: a.epoch, Obs: a.obs, Traffic: tr}
	reply := &a.reply
	err := a.conn.Call("Controller.Report", &a.report, reply)
	switch {
	case err == nil:
	case IsUnregisteredNode(err):
		// Lease expired or controller restarted: re-register next
		// interval.
		a.registered = false
		a.counters.Inc(CounterHeartbeatMisses)
		return err
	case IsStaleNodeEpoch(err):
		// A replacement agent owns this node now; stop driving it.
		a.registered = false
		a.fenced = true
		return err
	default:
		// Transport failure: redial next interval.
		a.dropConn()
		a.registered = false
		a.counters.Inc(CounterHeartbeatMisses)
		return err
	}
	a.lastContact = now
	a.policyVersion.Store(int64(reply.PolicyVersion))
	if reply.Hold {
		return errors.New("serve: controller held")
	}
	// Defense in depth: the controller vetted this config, but the
	// agent re-checks against its own model before touching hardware.
	if _, err := a.guard.Check(reply.Config, tr); err != nil {
		a.counters.Inc(CounterGuardrailRejections)
		return err
	}
	a.apply(reply.Config, reply.Source)
	return nil
}

// stepLocal walks the local rungs: last-known-good (while not stale),
// heuristic fallback, hold.
func (a *NodeAgent) stepLocal(now time.Time, tr perfmodel.Traffic) {
	a.counters.Inc(CounterFallbackActivations)
	if a.lastGood != nil && now.Sub(a.lastContact) < a.cfg.StaleAfter {
		if _, err := a.guard.Check(a.lastGood, tr); err == nil {
			a.apply(a.lastGood, SourceLastGood)
			return
		}
		a.counters.Inc(CounterGuardrailRejections)
	}
	if ks := a.fallback.Propose(a.env); ks != nil {
		if _, err := a.guard.Check(ks, tr); err == nil {
			a.apply(ks, SourceFallback)
			return
		}
		a.counters.Inc(CounterGuardrailRejections)
	}
	// Every rung exhausted: hold the current configuration (already
	// vetted when applied) rather than emit anything unvetted.
	a.mode = SourceHold
	res, err := a.env.SetKnobs(a.env.Knobs())
	if err == nil {
		a.result = res
	}
}

// apply installs a vetted config on the node and records it as
// last-known-good.
func (a *NodeAgent) apply(ks []perfmodel.NFKnobs, source string) {
	res, err := a.env.SetKnobs(ks)
	if err != nil {
		// Length mismatches are caught by the guardrail; treat an
		// apply failure as a hold.
		a.mode = SourceHold
		return
	}
	a.result = res
	a.mode = source
	a.lastGood = append(a.lastGood[:0], ks...)
	a.counters.Inc(CounterConfigsPushed)
}
