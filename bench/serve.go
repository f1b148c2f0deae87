package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"greennfv/internal/atomicio"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/serve"
)

// fleet is a controller restarted from the fixture's state file with
// StatePath set — the production configuration — and its registered
// node agents, all in this process and driven by one goroutine: every
// tick is one closed-loop report/reply over loopback net/rpc.
type fleet struct {
	fx        *fixture
	statePath string
	ctrl      *serve.Controller
	nodes     []node
	guard     serve.Guardrail
	bounds    perfmodel.KnobBounds
	now       time.Time
	// rec, when set, records a serve.tick span around every step.
	rec *recorder

	// rollout > 0 makes run() alternate the two fixture policies every
	// rollout ticks.
	rollout int
	rounds  int
	ticks   int
	reloads int
	// afterTick, when set, observes every tick (the traced run's
	// state-file poll).
	afterTick func(i int)
}

// node is one fleet member: the production serve.NodeAgent, or the
// traced run's replica of its tick built from public calls.
type node interface {
	// step runs one control interval.
	step(now time.Time) error
	// vetted reports whether the interval ended on a config the
	// controller vetted (policy or last-known-good rung).
	vetted() bool
	Env() *env.Env
	LastResult() perfmodel.Result
	Close() error
}

type agentNode struct{ *serve.NodeAgent }

func (a agentNode) step(now time.Time) error { return a.Step(now) }

func (a agentNode) vetted() bool {
	mode := a.Mode()
	return mode == serve.SourcePolicy || mode == serve.SourceLastGood
}

// newAgentNode builds the production node.
func newAgentNode(fx *fixture, addr string, rank int) (node, error) {
	a, err := serve.NewNodeAgent(serve.NodeConfig{NodeID: nodeID(rank), ControllerAddr: addr, Spec: fx.spec, Rank: rank})
	if err != nil {
		return nil, err
	}
	return agentNode{a}, nil
}

func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

func (fx *fixture) statePath(name string) string { return filepath.Join(fx.dir, name+".state") }

// stageState puts the seed state where the fleet called name restarts
// from: load-generator work, kept out of setup_s.
func (fx *fixture) stageState(name string) error {
	return copyFile(fx.statePath(name), fx.seedState)
}

// newFleet is the serving workloads' set-up, the fleet's recovery
// after a controller restart: NewController resuming the staged state,
// Start, and per node NewNodeAgent plus the first Step (dial, register,
// first vetted config).
func newFleet(fx *fixture, name string, rollout int, newNode func(fx *fixture, addr string, rank int) (node, error)) (*fleet, error) {
	f := &fleet{fx: fx, statePath: fx.statePath(name), rollout: rollout, now: time.Unix(1e6, 0)}
	ctrl, err := serve.NewController(serve.Config{Spec: fx.spec, StatePath: f.statePath})
	if err != nil {
		return nil, err
	}
	f.ctrl = ctrl
	if err := ctrl.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.nodes = make([]node, 0, fx.sz.fleet)
	for i := 0; i < fx.sz.fleet; i++ {
		a, err := newNode(fx, ctrl.Addr(), i)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, a)
		f.now = f.now.Add(time.Second)
		if err := a.step(f.now); err != nil {
			f.stop()
			return nil, fmt.Errorf("first step of %s: %w", nodeID(i), err)
		}
	}
	e := f.nodes[0].Env()
	f.bounds = perfmodel.DefaultBounds()
	f.guard = serve.Guardrail{Model: perfmodel.Default(), Chain: e.Chain(), Bounds: f.bounds, SLA: e.SLA()}
	return f, nil
}

// stagedFleet stages the seed state and restarts a fleet from it.
func stagedFleet(fx *fixture, name string, rollout int, newNode func(fx *fixture, addr string, rank int) (node, error)) (*fleet, error) {
	if err := fx.stageState(name); err != nil {
		return nil, err
	}
	return newFleet(fx, name, rollout, newNode)
}

// tick steps one agent and applies the failure definition: a tick
// fails when Step errs or the node did not end on a controller-vetted
// rung. An applied config that an independent guardrail or the knob
// bounds reject is a correctness error, not a failed op.
func (f *fleet) tick(i int) (failed bool, err error) {
	a := f.nodes[i]
	tr := a.Env().LastTraffic()
	f.now = f.now.Add(time.Second)
	f.rec.nextTrace()
	id := f.rec.begin("serve.tick")
	stepErr := a.step(f.now)
	f.rec.end(id)
	f.ticks++
	if f.afterTick != nil {
		f.afterTick(i)
	}
	if stepErr != nil || !a.vetted() {
		return true, nil
	}
	knobs := a.Env().Knobs()
	for i, k := range knobs {
		if k != f.bounds.Clamp(k) {
			return false, fmt.Errorf("tick %d: NF %d applied knobs %+v outside DefaultBounds", f.ticks, i, k)
		}
	}
	if _, err := f.guard.Check(knobs, tr); err != nil {
		return false, fmt.Errorf("tick %d: applied config fails an independent guardrail: %w", f.ticks, err)
	}
	return false, nil
}

func (f *fleet) round() (failed int, err error) {
	for i := range f.nodes {
		bad, err := f.tick(i)
		if err != nil {
			return failed, err
		}
		if bad {
			failed++
		}
	}
	return failed, nil
}

func (f *fleet) warm() error {
	for r := 0; r < f.fx.sz.serveWarm; r++ {
		if _, err := f.round(); err != nil {
			return err
		}
	}
	return nil
}

// reload swaps in the policy the fleet is not serving.
func (f *fleet) reload() error {
	f.reloads++
	path := f.fx.policyB
	if f.reloads%2 == 0 {
		path = f.fx.policyA
	}
	id := f.rec.begin("serve.reload_policy")
	err := f.ctrl.ReloadPolicy(path)
	f.rec.end(id)
	return err
}

func (f *fleet) run() (failed int, err error) {
	for r := 0; r < f.rounds; r++ {
		if f.rollout > 0 && (r*len(f.nodes))%f.rollout == 0 {
			if err := f.reload(); err != nil {
				return failed, err
			}
		}
		n, err := f.round()
		failed += n
		if err != nil {
			return failed, err
		}
	}
	return failed, nil
}

// serveCounters are the controller counters every rep must reproduce.
var serveCounters = []string{
	serve.CounterConfigsPushed, serve.CounterSourcePolicy, serve.CounterSourceLastGood,
	serve.CounterSourceHold, serve.CounterGuardrailRejections, serve.CounterFallbackActivations,
	serve.CounterHeartbeatMisses, serve.CounterStatePersistErrors,
}

func (f *fleet) outputs() (outputs, error) {
	var out outputs
	for _, a := range f.nodes {
		res := a.LastResult()
		if !(res.ThroughputGbps > 0) || !(res.EnergyJoules > 0) {
			return out, fmt.Errorf("node result not finite and positive: %+v", res)
		}
		out.efficiency += res.ThroughputGbps / (res.EnergyJoules / 1000)
	}
	out.efficiency /= float64(len(f.nodes))
	c := f.ctrl.Counters()
	for _, name := range serveCounters {
		out.counts = append(out.counts, count{"serve." + name, float64(c.Get(name))})
	}
	out.counts = append(out.counts, count{"serve.policy_version", float64(f.ctrl.PolicyVersion())})
	pushed := c.Get(serve.CounterConfigsPushed)
	if sum := c.Get(serve.CounterSourcePolicy) + c.Get(serve.CounterSourceLastGood); pushed != sum {
		return out, fmt.Errorf("configs_pushed %d != source_policy + source_last_good %d", pushed, sum)
	}
	if n := c.Get(serve.CounterStatePersistErrors); n != 0 {
		return out, fmt.Errorf("%d state persist errors", n)
	}
	return out, nil
}

func (f *fleet) stop() error {
	for _, a := range f.nodes {
		a.Close()
	}
	return f.ctrl.Close()
}

// close stops the fleet and checks that what the controller persisted
// is what it served: the state file must load and hold every node's
// last-known-good config, with no temp file left beside it.
func (f *fleet) close() error {
	if err := f.stop(); err != nil {
		return err
	}
	return f.verifyState()
}

// verifyState is the persisted-state round trip, on a stopped fleet.
func (f *fleet) verifyState() error {
	// Look for temp files before OpenStateStore, which sweeps them.
	left, err := atomicio.StrayTemps(f.statePath)
	if err != nil {
		return err
	}
	if len(left) > 0 {
		return fmt.Errorf("stray temp files beside the state file: %v", left)
	}
	store, err := serve.OpenStateStore(f.statePath)
	if err != nil {
		return err
	}
	st, err := store.Load()
	if err != nil {
		return fmt.Errorf("persisted state does not load: %w", err)
	}
	if st == nil {
		return errors.New("persisted state is missing")
	}
	if st.PolicyVersion != f.ctrl.PolicyVersion() {
		return fmt.Errorf("persisted policy version %d, serving %d", st.PolicyVersion, f.ctrl.PolicyVersion())
	}
	for i := range f.nodes {
		id := nodeID(i)
		want, got := f.ctrl.LastGood(id), st.LastGood[id]
		if len(want) == 0 || len(want) != len(got) {
			return fmt.Errorf("%s: persisted last-good has %d NFs, controller %d", id, len(got), len(want))
		}
		for j := range want {
			if want[j] != got[j] {
				return fmt.Errorf("%s NF %d: persisted last-good %+v, controller %+v", id, j, got[j], want[j])
			}
		}
	}
	return nil
}

func serveSteady(fx *fixture) *workload {
	return &workload{
		name:     "serve_steady",
		why:      "the steady serving tick: after convergence the limiter deadband stops config changes, so net/rpc, gob and scheduling dominate and persistence is idle",
		ops:      fx.sz.steadyRounds * fx.sz.fleet,
		opName:   "NodeAgent.Step tick",
		reps:     fx.sz.steadyReps,
		variants: 1,
		stage:    func() error { return fx.stageState("serve_steady") },
		build: func(int) (instance, error) {
			f, err := newFleet(fx, "serve_steady", 0, newAgentNode)
			if err != nil {
				return nil, err
			}
			f.rounds = fx.sz.steadyRounds
			return f, nil
		},
	}
}

func serveRollout(fx *fixture) *workload {
	ticks := fx.sz.rolloutPeriod * fx.sz.rolloutReloads
	return &workload{
		name:     "serve_rollout",
		why:      "same fleet while ReloadPolicy alternates two checkpoints: configs move after every reload, so the whole-fleet state file (with the policy blob) is rewritten beside the reads",
		ops:      ticks,
		opName:   "NodeAgent.Step tick",
		reps:     fx.sz.rolloutReps,
		variants: 1,
		stage:    func() error { return fx.stageState("serve_rollout") },
		build: func(int) (instance, error) {
			f, err := newFleet(fx, "serve_rollout", fx.sz.rolloutPeriod, newAgentNode)
			if err != nil {
				return nil, err
			}
			f.rounds = ticks / fx.sz.fleet
			return f, nil
		},
	}
}
