package serve

// Fleet-scale serving harness: a deterministic, in-process fleet
// simulator for the sharded controller. 32+ node agents with seeded
// per-rank traffic drive a live controller through scripted lease
// churn, partitions (faultrpc.FaultProxy) and hot policy reloads
// mid-storm — all on an injectable clock, under -race in CI. The
// pinned invariants:
//
//  1. Every applied config is vetted (in bounds; the guardrail
//     property test pins the SLA half).
//  2. No cross-node scratch bleed: replies from the concurrent
//     controller are bit-identical to a serial controller fed the
//     same seeded inputs (TestFleetDeterminismVsSerial).
//  3. Counters conserve: configs_pushed = policy + last-good sources
//     (and holds equal fallback activations).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"greennfv/internal/env"
	"greennfv/internal/faultrpc"
	"greennfv/internal/rl/apex"
	"greennfv/internal/sla"
)

// fakeClock is a mutex-guarded manual clock for Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock(start time.Time) *fakeClock { return &fakeClock{t: start} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// assertCountersConserve pins invariant 3 on a controller ledger.
func assertCountersConserve(t *testing.T, c *Controller) {
	t.Helper()
	pushed := c.Counters().Get(CounterConfigsPushed)
	policy := c.Counters().Get(CounterSourcePolicy)
	lastGood := c.Counters().Get(CounterSourceLastGood)
	hold := c.Counters().Get(CounterSourceHold)
	fallback := c.Counters().Get(CounterFallbackActivations)
	if pushed != policy+lastGood {
		t.Errorf("counter conservation broken: pushed %d != policy %d + lastGood %d",
			pushed, policy, lastGood)
	}
	if fallback != hold {
		t.Errorf("fallback %d != holds %d (last-good recoveries must not count as fallback)",
			fallback, hold)
	}
	if rej := c.Counters().Get(CounterGuardrailRejections); rej < hold {
		t.Errorf("rejections %d < holds %d: every hold implies at least one rejection", rej, hold)
	}
}

// simNode drives the controller API directly (no RPC) as one node
// agent would: observe its seeded env, report, apply the vetted reply
// (or hold). Used by the determinism and conservation tests, where
// the transport would only add noise.
type simNode struct {
	id    string
	epoch uint64
	env   *env.Env
	obs   []float64
}

func newSimNode(t testing.TB, spec apex.ActorSpec, rank int) *simNode {
	t.Helper()
	e, err := spec.BuildEnv(rank)
	if err != nil {
		t.Fatal(err)
	}
	return &simNode{
		id:  fmt.Sprintf("node-%03d", rank),
		env: e,
		obs: make([]float64, e.StateDim()),
	}
}

func (n *simNode) register(c *Controller) error {
	var reply RegisterNodeReply
	if err := c.register(&RegisterNodeArgs{NodeID: n.id}, &reply); err != nil {
		return err
	}
	n.epoch = reply.Epoch
	return nil
}

// step runs one control interval and returns the controller's reply.
func (n *simNode) step(c *Controller) (ReportReply, error) {
	n.env.ObserveInto(n.obs)
	var reply ReportReply
	err := c.report(&ReportArgs{
		NodeID:  n.id,
		Epoch:   n.epoch,
		Obs:     n.obs,
		Traffic: n.env.LastTraffic(),
	}, &reply)
	if err != nil {
		return reply, err
	}
	if reply.Hold {
		_, err = n.env.SetKnobs(n.env.Knobs())
	} else {
		_, err = n.env.SetKnobs(reply.Config)
	}
	return reply, err
}

// recorded is one interval's reply, reduced to the decision fields
// that must match bit-for-bit between concurrent and serial serving.
type recorded struct {
	hold   bool
	source string
	config []knobsKey
}

// knobsKey is a comparable flattening of one NF's knobs.
type knobsKey struct {
	share, freq, llc float64
	dma              int64
	batch            int
}

func recordReply(r ReportReply) recorded {
	rec := recorded{hold: r.Hold, source: r.Source}
	for _, k := range r.Config {
		rec.config = append(rec.config, knobsKey{k.CPUShare, k.FreqGHz, k.LLCFraction, k.DMABytes, k.Batch})
	}
	return rec
}

func sameRecord(a, b recorded) bool {
	if a.hold != b.hold || a.source != b.source || len(a.config) != len(b.config) {
		return false
	}
	for i := range a.config {
		if a.config[i] != b.config[i] { // float64 ==: bit-for-bit (no NaNs in vetted knobs)
			return false
		}
	}
	return true
}

// TestFleetDeterminismVsSerial is the scratch-isolation gate: 32
// nodes storm the sharded controller concurrently, then an identical
// serial controller replays every node's recorded input sequence one
// node at a time. Per-node decisions depend only on that node's own
// history plus the immutable policy snapshot, so every reply must be
// bit-identical — any cross-node scratch bleed (shared action buffer,
// shared actor forward scratch, shared guardrail prediction) shows up
// as a float diff here, and -race catches the access itself.
func TestFleetDeterminismVsSerial(t *testing.T) {
	const fleet = 32
	const rounds = 12
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	policy := writePolicy(t, dir, spec, 21)

	run := func(concurrent bool) [][]recorded {
		ctrl, err := NewController(Config{Spec: spec, PolicyPath: policy})
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]*simNode, fleet)
		for rank := range nodes {
			nodes[rank] = newSimNode(t, spec, rank)
		}
		got := make([][]recorded, fleet)
		drive := func(rank int) {
			n := nodes[rank]
			if err := n.register(ctrl); err != nil {
				t.Errorf("%s register: %v", n.id, err)
				return
			}
			for r := 0; r < rounds; r++ {
				reply, err := n.step(ctrl)
				if err != nil {
					t.Errorf("%s round %d: %v", n.id, r, err)
					return
				}
				if !reply.Hold && !inBounds(reply.Config, n.env.Bounds()) {
					t.Errorf("%s round %d: unvetted config %+v", n.id, r, reply.Config)
				}
				got[rank] = append(got[rank], recordReply(reply))
			}
		}
		if concurrent {
			var wg sync.WaitGroup
			for rank := 0; rank < fleet; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					drive(rank)
				}(rank)
			}
			wg.Wait()
		} else {
			for rank := 0; rank < fleet; rank++ {
				drive(rank)
			}
		}
		assertCountersConserve(t, ctrl)
		return got
	}

	parallel := run(true)
	serial := run(false)
	diffs := 0
	for rank := 0; rank < fleet; rank++ {
		if len(parallel[rank]) != rounds || len(serial[rank]) != rounds {
			t.Fatalf("rank %d: %d parallel / %d serial replies, want %d",
				rank, len(parallel[rank]), len(serial[rank]), rounds)
		}
		for r := 0; r < rounds; r++ {
			if !sameRecord(parallel[rank][r], serial[rank][r]) {
				diffs++
				if diffs <= 3 {
					t.Errorf("rank %d round %d: parallel %+v != serial %+v",
						rank, r, parallel[rank][r], serial[rank][r])
				}
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d replies differ between concurrent and serial serving", diffs)
	}
}

// TestFleetSoakStorm is the chaos soak: 32 real NodeAgents over RPC
// (half through a FaultProxy), scripted partitions, fleet-wide lease
// churn via the injected clock, and hot policy reloads mid-storm.
// Every applied config stays vetted, the fleet reconverges after each
// fault, and the controller ledger conserves.
func TestFleetSoakStorm(t *testing.T) {
	const fleet = 32
	const rounds = 30
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	clk := newFakeClock(time.Unix(1700000000, 0))
	ctrl := startController(t, Config{
		Spec:        spec,
		PolicyPath:  writePolicy(t, dir, spec, 22),
		LeaseWindow: 10 * time.Second,
		Now:         clk.Now,
	})
	proxy, err := faultrpc.NewFaultProxy(ctrl.Addr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	agents := make([]*NodeAgent, fleet)
	for i := range agents {
		addr := ctrl.Addr()
		if i%2 == 1 {
			addr = proxy.Addr() // odd ranks feel the partitions
		}
		a, err := NewNodeAgent(NodeConfig{
			NodeID:         fmt.Sprintf("node-%03d", i),
			ControllerAddr: addr,
			Spec:           spec,
			Rank:           i,
			CallTimeout:    250 * time.Millisecond,
			StaleAfter:     30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		agents[i] = a
	}

	stepAll := func(round int) {
		now := clk.Advance(time.Second)
		var wg sync.WaitGroup
		for i, a := range agents {
			wg.Add(1)
			go func(i int, a *NodeAgent) {
				defer wg.Done()
				a.Step(now) // degraded intervals are allowed; safety is not
				if ks := a.Env().Knobs(); !inBounds(ks, a.Env().Bounds()) {
					t.Errorf("round %d agent %d: applied knobs out of bounds: %+v", round, i, ks)
				}
			}(i, a)
		}
		wg.Wait()
	}

	for round := 0; round < rounds; round++ {
		switch round {
		case 8, 20:
			// Hot reload mid-storm: new valid policy swaps in while 32
			// reports are in flight around it.
			if err := ctrl.ReloadPolicy(writePolicy(t, t.TempDir(), spec, int64(23+round))); err != nil {
				t.Fatalf("round %d reload: %v", round, err)
			}
		case 10:
			proxy.Partition(true) // odd ranks lose the controller
		case 14:
			proxy.Partition(false)
		case 22:
			// Fleet-wide lease churn: silence long past the window, then
			// sweep. Every node must re-register transparently.
			clk.Advance(31 * time.Second)
			if n := ctrl.ExpireLeases(clk.Now()); n != fleet {
				t.Fatalf("round %d: expired %d leases, want %d", round, n, fleet)
			}
		}
		stepAll(round)
	}

	// Reconvergence: after the storm every agent is back on fresh
	// policy at the final version, holding a live lease.
	final := clk.Advance(time.Second)
	for i, a := range agents {
		if err := a.Step(final); err != nil {
			t.Errorf("final step agent %d: %v", i, err)
		}
		if a.Mode() != SourcePolicy {
			t.Errorf("agent %d mode %q after storm, want policy", i, a.Mode())
		}
		if got := int(a.policyVersion.Load()); got != ctrl.PolicyVersion() {
			t.Errorf("agent %d sees policy v%d, controller serves v%d", i, got, ctrl.PolicyVersion())
		}
	}
	if got := ctrl.RegisteredNodes(); got != fleet {
		t.Errorf("registered nodes = %d, want %d", got, fleet)
	}
	if ctrl.Counters().Get(CounterHeartbeatMisses) < fleet {
		t.Error("lease churn never exercised heartbeat misses")
	}
	assertCountersConserve(t, ctrl)
}

// TestExpireLeasesChurnRace is the shard-dangerous interleaving the
// striping change makes possible: ExpireLeases sweeping all shards
// while registers, reports and hot reloads land concurrently, on the
// injected clock, under -race. Semantics (not just absence of data
// races) are asserted at the end: the ledger conserves and a fresh
// register+report round-trip still serves.
func TestExpireLeasesChurnRace(t *testing.T) {
	const fleet = 24
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	clk := newFakeClock(time.Unix(1700000000, 0))
	ctrl, err := NewController(Config{
		Spec:        spec,
		PolicyPath:  writePolicy(t, dir, spec, 31),
		LeaseWindow: 3 * time.Second,
		Now:         clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	reloadPath := writePolicy(t, t.TempDir(), spec, 32)

	nodes := make([]*simNode, fleet)
	for rank := range nodes {
		nodes[rank] = newSimNode(t, spec, rank)
	}
	var wg sync.WaitGroup
	// Reporters: one per node, re-registering whenever churn evicts
	// them (exactly what a live agent does).
	for rank := 0; rank < fleet; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			n := nodes[rank]
			if err := n.register(ctrl); err != nil {
				t.Errorf("%s register: %v", n.id, err)
				return
			}
			for i := 0; i < 40; i++ {
				if _, err := n.step(ctrl); err != nil {
					if !IsUnregisteredNode(err) && !IsStaleNodeEpoch(err) {
						t.Errorf("%s: %v", n.id, err)
						return
					}
					var reply RegisterNodeReply
					if err := ctrl.register(&RegisterNodeArgs{NodeID: n.id}, &reply); err != nil {
						t.Errorf("%s re-register: %v", n.id, err)
						return
					}
					n.epoch = reply.Epoch
				}
			}
		}(rank)
	}
	// Expirer: advance the clock past the lease window and sweep,
	// racing every reporter's lease stamp.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			clk.Advance(2 * time.Second)
			ctrl.ExpireLeases(clk.Now())
		}
	}()
	// Reloader: swap policy snapshots under the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if err := ctrl.ReloadPolicy(reloadPath); err != nil {
				t.Errorf("reload %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	assertCountersConserve(t, ctrl)
	n := newSimNode(t, spec, fleet)
	if err := n.register(ctrl); err != nil {
		t.Fatal(err)
	}
	if reply, err := n.step(ctrl); err != nil {
		t.Fatalf("post-churn report: %v", err)
	} else if reply.Source != SourcePolicy {
		t.Fatalf("post-churn source %q, want policy", reply.Source)
	}
	if v := ctrl.PolicyVersion(); v != 16 {
		t.Errorf("policy version %d after 15 reloads, want 16", v)
	}
}
