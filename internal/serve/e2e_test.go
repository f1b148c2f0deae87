package serve

// End-to-end chaos drill for the serving plane: a controller and a
// node agent talk through a faultrpc.FaultProxy while the harness
// partitions the network, kills and restarts the controller, and
// feeds it a corrupt hot-reload checkpoint. The invariant throughout:
// the node always runs a guardrail-approved configuration (degrading
// down the ladder, never past it) and reconverges to fresh policy
// within one control interval of each heal.

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"greennfv/internal/atomicio"
	"greennfv/internal/faultrpc"
	"greennfv/internal/sla"
)

// freePort reserves an ephemeral listen address and releases it so
// the controller can be restarted on the same address later.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestServeChaosE2E(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	policyPath := writePolicy(t, dir, spec, 11)
	statePath := filepath.Join(dir, "controller.state")
	ctrlAddr := freePort(t)
	cfg := Config{Spec: spec, PolicyPath: policyPath, StatePath: statePath}

	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Start(ctrlAddr); err != nil {
		t.Fatal(err)
	}

	proxy, err := faultrpc.NewFaultProxy(ctrlAddr, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	agent, err := NewNodeAgent(NodeConfig{
		NodeID:         "node-a",
		ControllerAddr: proxy.Addr(),
		Spec:           spec,
		CallTimeout:    250 * time.Millisecond,
		StaleAfter:     2500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	// step drives one interval at a synthetic clock tick and asserts
	// the safety invariant that no chaos below may break: whatever the
	// ladder did, the applied knobs are inside the bounds.
	base := time.Now()
	tick := 0
	step := func() error {
		tick++
		err := agent.Step(base.Add(time.Duration(tick) * time.Second))
		if ks := agent.Env().Knobs(); !inBounds(ks, agent.Env().Bounds()) {
			t.Fatalf("tick %d: applied knobs out of bounds: %+v", tick, ks)
		}
		return err
	}
	mustMode := func(want, when string) {
		t.Helper()
		if agent.Mode() != want {
			t.Fatalf("%s: mode %q, want %q", when, agent.Mode(), want)
		}
	}

	// Healthy: fresh policy flows end to end through the proxy.
	for i := 0; i < 3; i++ {
		if err := step(); err != nil {
			t.Fatalf("healthy tick %d: %v", tick, err)
		}
	}
	mustMode(SourcePolicy, "healthy serving")

	// Partition the agent. The severed connection fails the next
	// report; the agent walks its ladder: last-known-good while fresh,
	// heuristic fallback once the controller has been silent past
	// StaleAfter (synthetic seconds 1 and 2, then 3+).
	proxy.Partition(true)
	if err := step(); err == nil {
		t.Fatal("partitioned tick reported no error")
	}
	mustMode(SourceLastGood, "first partitioned tick")
	step()
	mustMode(SourceLastGood, "second partitioned tick")
	step()
	mustMode(SourceFallback, "stale partitioned tick")

	// Heal the partition: the agent re-registers transparently and is
	// back on fresh policy within one interval.
	proxy.Partition(false)
	if err := step(); err != nil {
		t.Fatalf("post-heal tick: %v", err)
	}
	mustMode(SourcePolicy, "healed partition")

	// Corrupt hot reload mid-serve: rejected loudly, serving untouched.
	blob, err := os.ReadFile(policyPath)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	for i := len(bad) / 3; i < len(bad)/3+128 && i < len(bad); i++ {
		bad[i] ^= 0xA5
	}
	badPath := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ReloadPolicy(badPath); err == nil {
		t.Fatal("corrupt hot reload accepted")
	}
	if err := step(); err != nil {
		t.Fatalf("tick after rejected reload: %v", err)
	}
	mustMode(SourcePolicy, "serving after rejected reload")

	// A valid reload still lands (proves the reload path itself is
	// live, not wedged by the rejected one).
	if err := ctrl.ReloadPolicy(writePolicy(t, t.TempDir(), spec, 12)); err != nil {
		t.Fatalf("valid reload after corrupt one: %v", err)
	}

	// Kill the controller mid-serve. The agent degrades through its
	// local rungs and keeps every interval safe.
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := step(); err == nil {
		t.Fatal("tick with dead controller reported no error")
	}
	mustMode(SourceLastGood, "controller down")

	// Restart the controller on the same address from its persisted
	// state: the hot-reloaded policy version and the fleet's
	// last-known-good configs survive the crash.
	ctrl2, err := NewController(cfg)
	if err != nil {
		t.Fatalf("controller restart: %v", err)
	}
	defer ctrl2.Close()
	if v := ctrl2.PolicyVersion(); v != 2 {
		t.Errorf("restarted policy version %d, want 2 (reload persisted)", v)
	}
	if ctrl2.LastGood("node-a") == nil {
		t.Error("restart lost node-a's last-known-good config")
	}
	if err := ctrl2.Start(ctrlAddr); err != nil {
		t.Fatalf("controller restart listen: %v", err)
	}

	// Reconvergence: within one interval the agent re-registers with
	// the reborn controller and serves fresh policy again.
	if err := step(); err != nil {
		t.Fatalf("post-restart tick: %v", err)
	}
	mustMode(SourcePolicy, "reconverged after restart")

	// Crash-safe persistence leaves no temp droppings behind.
	if stray, err := atomicio.StrayTemps(statePath); err != nil || len(stray) != 0 {
		t.Errorf("stray state temps %v (err %v)", stray, err)
	}
	if agent.Counters().Get(CounterFallbackActivations) == 0 {
		t.Error("chaos run never exercised the ladder")
	}
}
