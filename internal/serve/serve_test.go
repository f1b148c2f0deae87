package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"greennfv/internal/atomicio"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
	"greennfv/internal/sla"
)

// testSpec is the node contract the serving tests share: the standard
// three-NF chain on the paper's workload, no load jitter (so the
// guardrail's prediction equals the node's measurement and the SLA
// property can be asserted exactly).
func testSpec(s sla.SLA) apex.ActorSpec {
	return apex.ActorSpec{SLA: s, EnvSeed: 42}
}

// ReadSpec reads back what ActorSpec.Encode (greennfv -write-spec)
// wrote, and refuses a missing or malformed file and a spec no node
// can build from: an unknown chain, a load jitter outside [0,1).
func TestReadSpec(t *testing.T) {
	dir := t.TempDir()
	want := testSpec(sla.NewEnergyEfficiency())
	path := filepath.Join(dir, "node.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReadSpec = %+v, want %+v", got, want)
	}
	refused := []string{filepath.Join(dir, "missing.json")}
	for name, body := range map[string]string{
		"bad.json":    "{not json",
		"chain.json":  `{"chain":"bogus"}`,
		"jitter.json": `{"load_jitter":5}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		refused = append(refused, p)
	}
	for _, p := range refused {
		if _, err := ReadSpec(p); err == nil {
			t.Errorf("ReadSpec(%s) succeeded", filepath.Base(p))
		}
	}
}

// writePolicy saves an untrained (random-weight — the noisiest policy
// there is) serving checkpoint sized for spec, returning its path.
func writePolicy(t testing.TB, dir string, spec apex.ActorSpec, seed int64) string {
	t.Helper()
	return writeTrainedPolicy(t, dir, spec, seed, []int{16, 16}, 0)
}

// writeTrainedPolicy is writePolicy at the given hidden widths, after
// that many updates on random transitions — enough to give the
// checkpoint the optimiser moments a trained one carries.
func writeTrainedPolicy(t testing.TB, dir string, spec apex.ActorSpec, seed int64, hidden []int, updates int) string {
	t.Helper()
	return writeCheckpoint(t, dir, trainedAgent(t, spec, seed, hidden, updates, 0), false)
}

// trainedAgent is the agent writeTrainedPolicy saves, with extra
// random transitions observed after its updates.
func trainedAgent(t testing.TB, spec apex.ActorSpec, seed int64, hidden []int, updates, extra int) *ddpg.Agent {
	t.Helper()
	e, err := spec.BuildEnv(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ddpg.DefaultConfig(e.StateDim(), e.ActionDim())
	cfg.Hidden = hidden
	cfg.Seed = seed
	agent, err := ddpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	random := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 2*rng.Float64() - 1
		}
		return v
	}
	observe := func(n int) {
		for i := 0; i < n; i++ {
			agent.Observe(replay.Transition{State: random(cfg.StateDim), Action: random(cfg.ActionDim), Reward: rng.Float64(), NextState: random(cfg.StateDim)})
		}
	}
	observe(cfg.BatchSize)
	for i := 0; i < updates; i++ {
		agent.Learn()
	}
	observe(extra)
	return agent
}

// writeCheckpoint saves agent's checkpoint, with its replay contents
// when includeReplay is set, as dir/policy.ckpt.
func writeCheckpoint(t testing.TB, dir string, agent *ddpg.Agent, includeReplay bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := agent.SaveState(&buf, includeReplay); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "policy.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startController builds and starts a controller for spec on an
// ephemeral port.
func startController(t testing.TB, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// inBounds reports whether every knob set lies inside b.
func inBounds(ks []perfmodel.NFKnobs, b perfmodel.KnobBounds) bool {
	for _, k := range ks {
		if k != b.Clamp(k) {
			return false
		}
	}
	return true
}

// TestServePolicyEndToEnd drives one agent against a live controller:
// configs arrive from the policy rung, stay in bounds, and the
// counters account for them.
func TestServePolicyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	ctrl := startController(t, Config{
		Spec:       spec,
		PolicyPath: writePolicy(t, dir, spec, 1),
	})
	agent, err := NewNodeAgent(NodeConfig{
		NodeID: "node-a", ControllerAddr: ctrl.Addr(), Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	now := time.Now()
	for i := 0; i < 5; i++ {
		if err := agent.Step(now.Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if agent.Mode() != SourcePolicy {
			t.Fatalf("step %d: mode %q, want %q", i, agent.Mode(), SourcePolicy)
		}
		if ks := agent.Env().Knobs(); !inBounds(ks, agent.Env().Bounds()) {
			t.Fatalf("step %d: applied knobs out of bounds: %+v", i, ks)
		}
	}
	if got := ctrl.Counters().Get(CounterConfigsPushed); got != 5 {
		t.Errorf("controller pushed %d configs, want 5", got)
	}
	if got := agent.Counters().Get(CounterConfigsPushed); got != 5 {
		t.Errorf("agent applied %d configs, want 5", got)
	}
	if got := ctrl.Counters().Get(CounterGuardrailRejections); got != 0 {
		t.Errorf("unexpected guardrail rejections: %d", got)
	}
}

// TestGuardrailProperty is the serving-plane safety invariant: over
// many intervals under a constrained SLA, every configuration the node
// applies is inside the knob bounds, holds no NaN, and every interval
// that applied one (any rung) has a measurement satisfying the SLA —
// nothing guardrail-rejected ever reaches the node. Jitter-free traffic
// makes prediction equal measurement, so the assertion is exact. Three
// ways for the policy to go wrong: an untrained (noisy) policy; a
// policy whose actor weights are all NaN, which the parameter frame
// carries bit for bit and whose actions are NaN, so the policy rung
// never supplies a config; and finite observations of ±1e308, which
// overflow the actor's activations.
func TestGuardrailProperty(t *testing.T) {
	budget, err := sla.NewMaxThroughput(2600)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(budget)
	vet := func(t *testing.T, step int, source string, ks []perfmodel.NFKnobs, b perfmodel.KnobBounds, res perfmodel.Result) {
		t.Helper()
		for _, k := range ks {
			if math.IsNaN(k.CPUShare) || math.IsNaN(k.FreqGHz) || math.IsNaN(k.LLCFraction) {
				t.Fatalf("step %d (%s): applied a NaN knob: %+v", step, source, ks)
			}
		}
		if !inBounds(ks, b) {
			t.Fatalf("step %d (%s): knobs out of bounds: %+v", step, source, ks)
		}
		if !budget.Satisfied(res.ThroughputGbps, res.EnergyJoules) {
			t.Fatalf("step %d (%s): applied config violates SLA: %.2f Gbps %.0f J",
				step, source, res.ThroughputGbps, res.EnergyJoules)
		}
	}
	// ladder steps a node agent against a controller serving the
	// checkpoint at path for 60 intervals and counts the applying ones
	// by source.
	ladder := func(t *testing.T, path string) map[string]int {
		ctrl := startController(t, Config{Spec: spec, PolicyPath: path})
		agent, err := NewNodeAgent(NodeConfig{
			NodeID: "node-a", ControllerAddr: ctrl.Addr(), Spec: spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
		applied := map[string]int{}
		now := time.Now()
		for i := 0; i < 60; i++ {
			agent.Step(now.Add(time.Duration(i) * time.Second)) // degraded intervals are allowed
			if ks := agent.Env().Knobs(); !inBounds(ks, agent.Env().Bounds()) {
				t.Fatalf("step %d: knobs out of bounds: %+v", i, ks)
			}
			if agent.Mode() != SourceHold {
				applied[agent.Mode()]++
				vet(t, i, agent.Mode(), agent.Env().Knobs(), agent.Env().Bounds(), agent.LastResult())
			}
		}
		if len(applied) == 0 {
			t.Fatal("no interval applied a config; property vacuous")
		}
		return applied
	}

	t.Run("noisy policy", func(t *testing.T) {
		ladder(t, writePolicy(t, t.TempDir(), spec, 2))
	})
	t.Run("NaN policy", func(t *testing.T) {
		applied := ladder(t, writeNaNPolicy(t, t.TempDir(), spec, 2))
		if applied[SourcePolicy] != 0 {
			t.Errorf("a NaN policy supplied %d configs", applied[SourcePolicy])
		}
	})
	t.Run("adversarial observations", func(t *testing.T) {
		ctrl := startController(t, Config{Spec: spec, PolicyPath: writePolicy(t, t.TempDir(), spec, 2)})
		n := newSimNode(t, spec, 0)
		if err := n.register(ctrl); err != nil {
			t.Fatal(err)
		}
		// Every fourth interval reports the true observation, so the
		// controller has a last-known-good to fall back on.
		applied := 0
		for i := 0; i < 60; i++ {
			n.env.ObserveInto(n.obs)
			for j := range n.obs {
				switch i % 4 {
				case 0:
					n.obs[j] = 1e308
				case 1:
					n.obs[j] = -1e308
				case 2:
					n.obs[j] = math.Copysign(math.MaxFloat64, float64(j%2)-0.5)
				}
			}
			var reply ReportReply
			if err := ctrl.report(&ReportArgs{NodeID: n.id, Epoch: n.epoch, Obs: n.obs, Traffic: n.env.LastTraffic()}, &reply); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if reply.Hold {
				if _, err := n.env.SetKnobs(n.env.Knobs()); err != nil {
					t.Fatal(err)
				}
				continue
			}
			res, err := n.env.SetKnobs(reply.Config)
			if err != nil {
				t.Fatal(err)
			}
			if i%4 != 3 {
				applied++
			}
			vet(t, i, reply.Source, reply.Config, n.env.Bounds(), res)
		}
		if applied == 0 {
			t.Fatal("no adversarial interval applied a config; property vacuous")
		}
	})
}

// writeNaNPolicy is writePolicy with every actor weight and bias NaN.
func writeNaNPolicy(t testing.TB, dir string, spec apex.ActorSpec, seed int64) string {
	t.Helper()
	path := writePolicy(t, dir, spec, seed)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := ddpg.LoadAgentBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range agent.Actor.ParamSlices() {
		for i := range p {
			p[i] = math.NaN()
		}
	}
	var buf bytes.Buffer
	if err := agent.SaveState(&buf, false); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLimiter pins rate caps and hysteresis: pass-through first, caps
// on big jumps, deadband holds on small ones.
func TestLimiter(t *testing.T) {
	l := DefaultLimiter()
	first := []perfmodel.NFKnobs{{CPUShare: 1, FreqGHz: 1.5, LLCFraction: 0.5, DMABytes: 4 << 20, Batch: 8}}
	if got := l.Limit(first); got[0] != first[0] {
		t.Fatalf("first Limit altered the proposal: %+v", got[0])
	}
	l.Record(first)

	jump := []perfmodel.NFKnobs{{CPUShare: 4, FreqGHz: 2.1, LLCFraction: 1.0, DMABytes: 40 << 20, Batch: 256}}
	got := l.Limit(jump)[0]
	if got.CPUShare != 3 {
		t.Errorf("share step: got %v, want 3 (1+2)", got.CPUShare)
	}
	if got.FreqGHz != 1.8 {
		t.Errorf("freq step: got %v, want 1.8 (1.5+0.3)", got.FreqGHz)
	}
	if got.LLCFraction != 0.75 {
		t.Errorf("llc step: got %v, want 0.75 (0.5+0.25)", got.LLCFraction)
	}
	if got.DMABytes != 16<<20 {
		t.Errorf("dma factor: got %d, want %d (4x)", got.DMABytes, int64(16<<20))
	}
	if got.Batch != 32 {
		t.Errorf("batch factor: got %d, want 32 (4x)", got.Batch)
	}

	// Small wiggles inside the 5% deadband hold the baseline exactly.
	wiggle := []perfmodel.NFKnobs{{CPUShare: 1.04, FreqGHz: 1.52, LLCFraction: 0.49, DMABytes: 4<<20 + 1000, Batch: 8}}
	if got := l.Limit(wiggle)[0]; got != first[0] {
		t.Errorf("deadband did not hold: %+v vs %+v", got, first[0])
	}

	// A guardrail-rejected proposal must not move the baseline: Limit
	// again without Record and the caps still rate against `first`.
	if got := l.Limit(jump)[0]; got.FreqGHz != 1.8 {
		t.Errorf("baseline moved without Record: freq %v, want 1.8", got.FreqGHz)
	}
	l.Reset()
	if got := l.Limit(jump)[0]; got != jump[0] {
		t.Errorf("post-Reset Limit altered the proposal: %+v", got)
	}
}

// TestLeaseFencing pins the zombie-fencing story: a second
// registration for the same node supersedes the first (stale epoch is
// fatal), and an expired lease forces a transparent re-register.
// Lease expiry runs on the injected controller clock — deterministic,
// no sleeps.
func TestLeaseFencing(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	clk := newFakeClock(time.Unix(1700000000, 0))
	ctrl := startController(t, Config{
		Spec:        spec,
		PolicyPath:  writePolicy(t, dir, spec, 3),
		LeaseWindow: 10 * time.Second,
		Now:         clk.Now,
	})
	mk := func() *NodeAgent {
		a, err := NewNodeAgent(NodeConfig{
			NodeID: "node-a", ControllerAddr: ctrl.Addr(), Spec: spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		return a
	}
	now := time.Now()
	old := mk()
	if err := old.Step(now); err != nil {
		t.Fatal(err)
	}
	// A replacement registers; the old instance's epoch is superseded.
	repl := mk()
	if err := repl.Step(now); err != nil {
		t.Fatal(err)
	}
	err := old.Step(now.Add(time.Second))
	if !IsStaleNodeEpoch(err) {
		t.Fatalf("zombie step error = %v, want stale epoch", err)
	}
	if old.Mode() == SourcePolicy {
		t.Error("fenced zombie still applying policy configs")
	}

	// Let the replacement's lease expire by advancing the injected
	// clock past the lease window; its next step re-registers
	// transparently (one degraded interval, then fresh policy again).
	clk.Advance(11 * time.Second)
	if n := ctrl.ExpireLeases(clk.Now()); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	if got := ctrl.Counters().Get(CounterHeartbeatMisses); got != 1 {
		t.Errorf("heartbeat misses = %d, want 1", got)
	}
	if err := repl.Step(now.Add(2 * time.Second)); !IsUnregisteredNode(err) {
		t.Fatalf("post-expiry step error = %v, want unregistered", err)
	}
	if err := repl.Step(now.Add(3 * time.Second)); err != nil {
		t.Fatalf("re-registered step: %v", err)
	}
	if repl.Mode() != SourcePolicy {
		t.Errorf("post-re-register mode %q, want policy", repl.Mode())
	}
}

// TestHotReload pins hot policy reload: a valid checkpoint swaps in
// (version bump), a corrupt one is rejected loudly while serving
// continues on the old policy.
func TestHotReload(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	ctrl := startController(t, Config{
		Spec:       spec,
		PolicyPath: writePolicy(t, dir, spec, 4),
	})
	if v := ctrl.PolicyVersion(); v != 1 {
		t.Fatalf("boot policy version %d, want 1", v)
	}
	if err := ctrl.ReloadPolicy(writePolicy(t, t.TempDir(), spec, 5)); err != nil {
		t.Fatalf("valid reload: %v", err)
	}
	if v := ctrl.PolicyVersion(); v != 2 {
		t.Fatalf("post-reload version %d, want 2", v)
	}

	// Corrupt checkpoint: flip bytes mid-blob.
	bad := filepath.Join(dir, "bad.ckpt")
	blob, err := os.ReadFile(filepath.Join(dir, "policy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for i := len(blob) / 2; i < len(blob)/2+64 && i < len(blob); i++ {
		blob[i] ^= 0xFF
	}
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ReloadPolicy(bad); err == nil {
		t.Fatal("corrupt reload accepted")
	}
	if v := ctrl.PolicyVersion(); v != 2 {
		t.Errorf("corrupt reload changed version to %d", v)
	}
	// A dimension-mismatched (but decodable) checkpoint is rejected
	// too.
	other := testSpec(sla.NewEnergyEfficiency())
	other.Chain = "light" // 2 NFs: different state/action dims
	if err := ctrl.ReloadPolicy(writePolicy(t, t.TempDir(), other, 6)); err == nil {
		t.Fatal("dimension-mismatched reload accepted")
	}

	// Serving still works after the rejected reloads.
	agent, err := NewNodeAgent(NodeConfig{
		NodeID: "node-a", ControllerAddr: ctrl.Addr(), Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.Step(time.Now()); err != nil {
		t.Fatalf("serving after rejected reload: %v", err)
	}
}

// TestReloadRefusesStreamedDamage: ReloadPolicy streams the file
// through its ddpg.PolicyReader and refuses every row of ddpg's
// TestReadPolicyRefusesStreamedDamage with that reader's message; the
// controller keeps serving its old policy at its old version, and the
// file stays as it was. Offsets are the section's layout (internal/rl/ddpg
// doc, "Checkpoint"): the magic, a uint64 length and a uint32 CRC32 of
// everything from byte 20, then the config, whose width count is its
// uint32 at bytes 36–39.
func TestReloadRefusesStreamedDamage(t *testing.T) {
	spec := testSpec(sla.NewEnergyEfficiency())
	dir := t.TempDir()
	ctrl, err := NewController(Config{Spec: spec, PolicyPath: writePolicy(t, dir, spec, 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.ReloadPolicy(writePolicy(t, t.TempDir(), spec, 5)); err != nil {
		t.Fatal(err)
	}
	serving := ctrl.policy.Load()

	file, err := os.ReadFile(filepath.Join(dir, "policy.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	_, form, err := ddpg.LoadPolicy(file)
	if err != nil {
		t.Fatal(err)
	}
	frameLen, stateLen := len(ddpg.ActorFrame(form)), len(file)-len(form)
	le := binary.LittleEndian
	edited := func(edit func(b []byte)) []byte {
		b := bytes.Clone(file)
		edit(b)
		return b
	}
	reseal := func(b []byte) { le.PutUint32(b[16:], crc32.ChecksumIEEE(b[20:])) }
	for name, data := range map[string][]byte{
		"header length past the end":         edited(func(b []byte) { le.PutUint64(b[8:], uint64(len(b)-20+1)) }),
		"header length short of the end":     edited(func(b []byte) { le.PutUint64(b[8:], uint64(len(b)-20-1)) }),
		"flipped byte in the training state": edited(func(b []byte) { b[len(form)+stateLen/2] ^= 0x10 }),
		"cut mid-frame":                      file[:len(form)-frameLen/2],
		"cut mid-tail":                       file[:len(form)+stateLen/2],
		"width count 2^32-1":                 edited(func(b []byte) { le.PutUint32(b[36:], math.MaxUint32); reseal(b) }),
		"the magic alone in 20 bytes":        append([]byte("GNFVPOL1"), make([]byte, 12)...),
	} {
		_, _, want := ddpg.LoadPolicy(data)
		if want == nil {
			t.Fatalf("%s: ddpg.LoadPolicy accepted the file", name)
		}
		path := filepath.Join(t.TempDir(), "damaged.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := ctrl.ReloadPolicy(path)
		if err == nil || !strings.Contains(err.Error(), "serve: reload rejected: ") || !strings.HasSuffix(err.Error(), want.Error()) ||
			errors.Is(err, ErrReloadNotPersisted) {
			t.Errorf("%s: ReloadPolicy returned %v, want a rejection ending %q", name, err, want)
		}
		if ctrl.policy.Load() != serving || ctrl.PolicyVersion() != serving.version {
			t.Errorf("%s: a refused reload changed the serving policy", name)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Errorf("%s: a refused reload changed the file (%v)", name, err)
		}
	}
}

// TestReloadPersistFailureIsNotRejection: a reload whose policy swapped
// in but whose state file could not be written — its directory removed
// under the controller, which fails for root too — is counted as a
// persist error and returns ErrReloadNotPersisted, while the new
// version serves. A rejected reload is neither.
func TestReloadPersistFailureIsNotRejection(t *testing.T) {
	spec := testSpec(sla.NewEnergyEfficiency())
	stateDir := t.TempDir()
	ctrl, err := NewController(Config{
		Spec:       spec,
		PolicyPath: writePolicy(t, t.TempDir(), spec, 4),
		StatePath:  filepath.Join(stateDir, "controller.state"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ReloadPolicy(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil || errors.Is(err, ErrReloadNotPersisted) {
		t.Fatalf("reloading a missing file returned %v, want a rejection", err)
	}
	if err := os.RemoveAll(stateDir); err != nil {
		t.Fatal(err)
	}
	next := writePolicy(t, t.TempDir(), spec, 5)
	err = ctrl.ReloadPolicy(next)
	if !errors.Is(err, ErrReloadNotPersisted) {
		t.Fatalf("a reload that could not persist returned %v, want %v", err, ErrReloadNotPersisted)
	}
	if v := ctrl.PolicyVersion(); v != 2 {
		t.Errorf("serving v%d after the unpersisted reload, want v2", v)
	}
	if got := ctrl.Counters().Get(CounterStatePersistErrors); got != 1 {
		t.Errorf("state_persist_errors = %d, want 1", got)
	}
	n := newSimNode(t, spec, 0)
	if err := n.register(ctrl); err != nil {
		t.Fatal(err)
	}
	if reply, err := n.step(ctrl); err != nil || reply.PolicyVersion != 2 {
		t.Errorf("report after the unpersisted reload: %v, policy v%d, want v2", err, reply.PolicyVersion)
	}
}

// TestReplicaRefreshesInPlace: after a reload a pooled replica keeps its
// network, which now holds the new snapshot's weights — its greedy
// actions equal, bit for bit, those of the agent the new checkpoint
// holds — and a reload to other hidden widths gives it a new network,
// built from the snapshot's frame, which acts bit-identically to that
// checkpoint's agent.
func TestReplicaRefreshesInPlace(t *testing.T) {
	spec := testSpec(sla.NewEnergyEfficiency())
	ctrl, err := NewController(Config{Spec: spec, PolicyPath: writePolicy(t, t.TempDir(), spec, 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	sc, err := ctrl.getScratch(ctrl.policy.Load())
	if err != nil {
		t.Fatal(err)
	}
	actsLike := func(when, path string) {
		t.Helper()
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ddpg.LoadAgentBytes(file)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		obs := make([]float64, ctrl.probe.StateDim())
		got, ref := make([]float64, ctrl.probe.ActionDim()), make([]float64, ctrl.probe.ActionDim())
		for trial := 0; trial < 10; trial++ {
			for i := range obs {
				obs[i] = 2*rng.Float64() - 1
			}
			if err := sc.actor.Greedy(obs, got); err != nil {
				t.Fatal(err)
			}
			if err := want.ActInto(obs, false, ref); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s: the replica acts %v, the checkpoint's agent %v", when, got, ref)
				}
			}
		}
	}
	resync := func() {
		t.Helper()
		if err := sc.sync(ctrl.policy.Load()); err != nil {
			t.Fatal(err)
		}
		if sc.version != ctrl.PolicyVersion() {
			t.Errorf("replica at v%d, serving v%d", sc.version, ctrl.PolicyVersion())
		}
	}

	net := sc.actor.Actor
	same := writePolicy(t, t.TempDir(), spec, 5)
	if err := ctrl.ReloadPolicy(same); err != nil {
		t.Fatal(err)
	}
	resync()
	if sc.actor.Actor != net {
		t.Error("a reload to the same topology replaced the replica's network")
	}
	actsLike("same topology", same)

	wider := writeTrainedPolicy(t, t.TempDir(), spec, 6, []int{24, 8}, 0)
	if err := ctrl.ReloadPolicy(wider); err != nil {
		t.Fatal(err)
	}
	resync()
	if sc.actor.Actor == net {
		t.Error("a reload to other widths kept the old network")
	}
	actsLike("other widths", wider)
}

// TestControllerStatePersistence pins crash-safe state: a controller
// restarted from its state file resumes the hot-reloaded policy
// version and the fleet's last-known-good configs, and sweeps temp
// droppings a crashed writer left behind.
func TestControllerStatePersistence(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	statePath := filepath.Join(dir, "controller.state")
	cfg := Config{
		Spec:       spec,
		PolicyPath: writePolicy(t, dir, spec, 7),
		StatePath:  statePath,
	}
	ctrl := startController(t, cfg)
	agent, err := NewNodeAgent(NodeConfig{
		NodeID: "node-a", ControllerAddr: ctrl.Addr(), Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.Step(time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ReloadPolicy(writePolicy(t, t.TempDir(), spec, 8)); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crashed writer's leftover temp next to the state.
	if err := os.WriteFile(filepath.Join(dir, ".controller.state.tmp-999"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctrl2, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl2.Close()
	if v := ctrl2.PolicyVersion(); v != 2 {
		t.Errorf("restarted version %d, want 2 (hot reload persisted)", v)
	}
	if ctrl2.LastGood("node-a") == nil {
		t.Error("restart lost node-a's last-known-good config")
	}
	if stray, _ := atomicio.StrayTemps(statePath); len(stray) != 0 {
		t.Errorf("restart left stray temps: %v", stray)
	}
}
