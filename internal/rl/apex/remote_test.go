package apex

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// buildActorBinary compiles cmd/apexactor, so a round runs the shipped
// actor binary and its flag set. The child is a plain (non-race) build;
// the race detector checks the trainer process, which is where all
// shared state lives.
func buildActorBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "apexactor")
	cmd := exec.Command("go", "build", "-o", bin, "greennfv/cmd/apexactor")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build apexactor (no toolchain?): %v\n%s", err, out)
	}
	return bin
}

// actorRoleArg, as this test binary's first argument, makes it run as
// one remote actor process (actorRoleMain) instead of the tests. It is
// an argument, not an environment variable, because the chaos trainer's
// children inherit that process's environment, role variable included.
const actorRoleArg = "apex-actor-role"

// actorArgv is the SpawnRemote prefix that runs this test binary as an
// actor process with the given flags.
func actorArgv(flags ...string) []string {
	return append([]string{os.Args[0], actorRoleArg}, flags...)
}

// actorRoleMain is the actor process the fault-tolerance tests spawn:
// cmd/apexactor's flags, with the spec read from stdin, plus an
// injected crash. The rank -crashat arms (every rank when -crashrank is
// -1) runs that many steps, flushes, and exits non-zero, unless the
// -crashmark file exists; the file is created when the crash fires, so
// a supervised respawn of the rank runs its budget clean.
func actorRoleMain(args []string) int {
	fs := flag.NewFlagSet(actorRoleArg, flag.ContinueOnError)
	learner := fs.String("learner", "", "learner RPC address")
	specPath := fs.String("spec", "-", "actor spec JSON (only \"-\", stdin)")
	rank := fs.Int("rank", 0, "actor rank")
	steps := fs.Int("steps", 0, "environment-step budget (0 = spec's)")
	quiet := fs.Bool("q", false, "suppress progress logging")
	verifyPrio := fs.Bool("verifyprio", false, "cross-check batched priorities against the scalar path")
	crashAt := fs.Int("crashat", 0, "exit non-zero after this many steps (0 = never)")
	crashRank := fs.Int("crashrank", -1, "apply -crashat only to this rank (-1 = any rank)")
	crashMark := fs.String("crashmark", "", "marker file that disarms -crashat once it exists")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "%s[%d]: %v\n", actorRoleArg, *rank, err)
		return 1
	}
	if *specPath != "-" {
		return fail(errors.New("-spec: the actor role reads its spec from stdin"))
	}
	spec, err := DecodeActorSpec(os.Stdin)
	if err != nil {
		return fail(err)
	}
	opt := RemoteActorOptions{Addr: *learner, Rank: *rank, Steps: *steps, VerifyPriorities: *verifyPrio}
	if !*quiet {
		opt.Logf = log.New(os.Stderr, fmt.Sprintf("%s[%d]: ", actorRoleArg, *rank), 0).Printf
	}
	budget := *steps
	if budget <= 0 {
		budget = spec.Steps
	}
	armed := *crashAt > 0 && (*crashRank < 0 || *crashRank == *rank) && (budget <= 0 || *crashAt < budget)
	if armed && *crashMark != "" {
		if _, err := os.Stat(*crashMark); err == nil {
			armed = false // crashed once already
		}
	}
	if armed {
		opt.Steps = *crashAt
	}
	if err := RunRemoteActor(spec, opt); err != nil {
		return fail(err)
	}
	if !armed {
		return 0
	}
	if *crashMark != "" {
		if err := os.WriteFile(*crashMark, []byte("crashed\n"), 0o644); err != nil {
			return fail(err)
		}
	}
	return fail(fmt.Errorf("injected crash after %d steps", *crashAt))
}

// testSpec is the shared environment description for remote tests.
func testSpec() *ActorSpec {
	return &ActorSpec{
		SLA:        sla.NewEnergyEfficiency(),
		LoadJitter: 0.05,
		EnvSeed:    1000,
	}
}

// TestRemoteTrainingRound runs a real 2-process-actor training round
// end-to-end (meaningful under -race): the trainer serves the learner
// over net/rpc, spawns two apexactor subprocesses, and must see the
// full experience budget arrive over RPC, the parameter version
// propagate to both actors, and a clean shutdown.
func TestRemoteTrainingRound(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := buildActorBinary(t)

	const total = 240
	cfg := DefaultTrainerConfig(total)
	cfg.RemoteActors = 2
	// -verifyprio makes each actor process cross-check every batched
	// TD-error priority against the scalar path and exit nonzero on any
	// bit difference, so this round also proves the batched priority
	// computation is bit-for-bit across processes.
	cfg.SpawnRemote = []string{bin, "-q", "-verifyprio"}
	cfg.RemoteSpec = testSpec()
	cfg.WarmupSteps = 32
	cfg.VersionEvery = 4
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{24, 24}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 11

	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tr.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("remote training round did not finish")
	}

	// Experience counts: every environment step of both actors must
	// have arrived over RPC (Flush ships partial chunks).
	pushes, transitions := tr.Learner().Stats()
	if transitions != total {
		t.Errorf("learner received %d transitions over RPC, want %d", transitions, total)
	}
	if pushes == 0 {
		t.Error("no pushes recorded")
	}

	// Both ranks registered, pushed, and saw a broadcast parameter
	// version newer than the initial one.
	stats := tr.RemoteActorStats()
	if len(stats) != 2 {
		t.Fatalf("learner saw %d actors, want 2 (%+v)", len(stats), stats)
	}
	for rank := 0; rank < 2; rank++ {
		st, ok := stats[rank]
		if !ok {
			t.Fatalf("rank %d never registered (%+v)", rank, stats)
		}
		if !st.Registered {
			t.Errorf("rank %d pushed without registering", rank)
		}
		if st.Transitions != total/2 {
			t.Errorf("rank %d pushed %d transitions, want %d", rank, st.Transitions, total/2)
		}
		if st.LastVersion <= 1 {
			t.Errorf("rank %d never reported an updated param version (last %d)", rank, st.LastVersion)
		}
	}

	// The learner spent its full round-robin-equivalent budget.
	wantUpdates := cfg.LearnPerStep * (total - cfg.WarmupSteps)
	if got := tr.Learner().Agent().LearnSteps(); got != wantUpdates {
		t.Errorf("learner ran %d updates, want %d", got, wantUpdates)
	}
	if tr.steps != total {
		t.Errorf("trainer recorded %d steps, want %d", tr.steps, total)
	}
}

// TestFleetFailureStopsLearner pins what a fatal fleet failure does to
// the round: rank 1 (this test binary in the actor role) crashes after
// 100 steps with no restart budget, so
// the supervisor gives up and kills the fleet — and the learner must
// stop with it instead of spending the rest of an 8 000-step budget on
// the couple of hundred transitions that arrived, and must leave the
// last interval checkpoint in place rather than overwrite it with a
// "round complete" one.
func TestFleetFailureStopsLearner(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	ckpt := filepath.Join(t.TempDir(), "trainer.ckpt")

	cfg := DefaultTrainerConfig(8000)
	cfg.RemoteActors = 2
	cfg.SpawnRemote = actorArgv("-q", "-crashat", "100", "-crashrank", "1")
	cfg.RemoteSpec = testSpec()
	cfg.WarmupSteps = 32
	cfg.MaxActorRestarts = 0
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 50
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{16, 16}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 23
	budget := cfg.LearnPerStep * (cfg.TotalSteps - cfg.WarmupSteps)

	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tr.Run() }()
	select {
	case err = <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("failed round did not end")
	}
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("Run error = %v, want the supervisor's \"gave up\" failure", err)
	}
	if got := tr.Learner().Agent().LearnSteps(); got >= budget/4 {
		t.Errorf("learner ran %d of %d updates after the fleet failed; want it stopped", got, budget)
	}
	// An interval checkpoint may or may not have landed before the
	// crash; a completion checkpoint must not have.
	if ck, err := ReadCheckpoint(ckpt); err == nil && ck.Updates >= budget {
		t.Errorf("checkpoint records %d updates: the failed round wrote a completion checkpoint", ck.Updates)
	}
}

// TestRemoteTrainerValidation pins the remote-mode constructor
// contract: a spec is required, and its normalized copy must match
// the learner's network shape and the trainer's cadence.
func TestRemoteTrainerValidation(t *testing.T) {
	cfg := DefaultTrainerConfig(100)
	cfg.RemoteActors = 2
	if _, err := NewTrainer(cfg); err == nil {
		t.Error("remote mode without RemoteSpec did not error")
	}

	cfg.RemoteSpec = testSpec()
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{24, 24}
	cfg.AgentConfig.Seed = 3
	cfg.AgentConfig.Gamma = 0.99 // non-default: must reach remote actors
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := tr.cfg.RemoteSpec
	if got, want := spec.Agent.Hidden, cfg.AgentConfig.Hidden; len(got) != len(want) || got[0] != want[0] {
		t.Errorf("normalized spec Hidden = %v, want learner's %v", got, want)
	}
	if spec.PushEvery != cfg.PushEvery || spec.SyncEvery != cfg.SyncEvery {
		t.Errorf("normalized cadence %d/%d, want %d/%d",
			spec.PushEvery, spec.SyncEvery, cfg.PushEvery, cfg.SyncEvery)
	}
	if spec.Agent.Seed != cfg.AgentConfig.Seed {
		t.Errorf("normalized agent seed = %d, want %d", spec.Agent.Seed, cfg.AgentConfig.Seed)
	}
	if spec.Agent.Gamma != 0.99 {
		t.Errorf("normalized agent Gamma = %v, want the learner's 0.99 (hyperparameters must not silently reset to defaults)", spec.Agent.Gamma)
	}
	// The caller's spec must not be mutated.
	if cfg.RemoteSpec.PushEvery != 0 {
		t.Error("normalization mutated the caller's spec")
	}
}

// TestRetryBackoffCap pins the fix for the uncapped redial backoff:
// the per-attempt sleep doubles from Backoff but never exceeds
// MaxBackoff (2s default), so a user-raised MaxRetries against a
// flapping learner cannot stall an actor for minutes, and the
// doubling cannot overflow for any attempt count.
func TestRetryBackoffCap(t *testing.T) {
	r := NewRemoteLearner("127.0.0.1:1", 0)
	if r.MaxBackoff != 2*time.Second {
		t.Errorf("default MaxBackoff = %v, want 2s", r.MaxBackoff)
	}
	r.Backoff = 50 * time.Millisecond
	r.MaxBackoff = 400 * time.Millisecond
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := r.backoffFor(attempt); got != w {
			t.Errorf("backoffFor(%d) = %v, want %v", attempt, got, w)
		}
	}
	// A huge attempt count must neither overflow nor exceed the cap
	// (the old doubling would have overflowed past attempt 62).
	if got := r.backoffFor(100); got != r.MaxBackoff {
		t.Errorf("backoffFor(100) = %v, want %v", got, r.MaxBackoff)
	}
	// An unset cap falls back to the 2s default rather than uncapped.
	r.MaxBackoff = 0
	if got := r.backoffFor(100); got != 2*time.Second {
		t.Errorf("backoffFor with zero MaxBackoff = %v, want 2s", got)
	}
}

// TestNoRetryAfterDrain: once the learner has signalled drain, a
// transport failure is final — the actor must not burn its full
// backoff schedule against a learner that has already ended the
// round. Regression test for the drain-then-stall case: the old code
// retried MaxRetries times (seconds of sleep) before letting the
// actor exit.
func TestNoRetryAfterDrain(t *testing.T) {
	srv, err := Serve(rpcLearner(t), testFleet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Service().BeginDrain()

	r := NewRemoteLearner(srv.Addr(), 3)
	defer r.Close()
	r.MaxRetries = 10
	r.Backoff = 200 * time.Millisecond
	// The drain reply is still delivered with the accepted batch.
	if err := r.PushExperience(rpcBatch(1)); err != nil {
		t.Fatal(err)
	}
	if !r.Draining() {
		t.Fatal("drain signal not latched from push reply")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = r.PushExperience(rpcBatch(1))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("push to a closed learner succeeded")
	}
	if !strings.Contains(err.Error(), "draining") {
		t.Errorf("error does not mention the drain short-circuit: %v", err)
	}
	// One attempt, no backoff sleeps: far under even a single 200ms
	// retry delay.
	if elapsed >= 150*time.Millisecond {
		t.Errorf("drained call took %v, want an immediate failure (retries not skipped?)", elapsed)
	}
}

// TestActorSpecRoundTrip pins the JSON contract: a spec survives
// encode/decode and builds rank-laddered agents.
func TestActorSpecRoundTrip(t *testing.T) {
	spec := testSpec()
	spec.Chain = "light"
	spec.Agent = ddpg.DefaultConfig(0, 0)
	spec.Agent.Hidden = []int{16}
	spec.Agent.Gamma = 0.9
	spec.BaseSigma = 0.2
	spec.PushEvery, spec.SyncEvery = 4, 8
	spec.Steps = 50

	var buf strings.Builder
	if err := spec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeActorSpec(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Chain != "light" || got.Steps != 50 || got.SLA.Kind != sla.EnergyEfficiency {
		t.Errorf("round-trip mismatch: %+v", got)
	}

	e, err := got.BuildEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	a0 := got.agentConfig(e.StateDim(), e.ActionDim(), 0)
	a2 := got.agentConfig(e.StateDim(), e.ActionDim(), 2)
	if a0.OUSigma != 0.2 || a2.OUSigma != 0.2*2 {
		t.Errorf("exploration ladder broken: rank0 %v rank2 %v", a0.OUSigma, a2.OUSigma)
	}
	if a2.Seed != a0.Seed+202 {
		t.Errorf("seed ladder broken: rank0 %d rank2 %d", a0.Seed, a2.Seed)
	}
	if a0.Gamma != 0.9 || a2.Gamma != 0.9 {
		t.Errorf("agent template not honored: gammas %v/%v, want 0.9", a0.Gamma, a2.Gamma)
	}

	if _, err := DecodeActorSpec(strings.NewReader(`{"chain":"bogus","push_every":1,"sync_every":1}`)); err == nil {
		t.Error("bogus chain decoded without error")
	}
}
