package apex

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"greennfv/internal/atomicio"
	"greennfv/internal/faultrpc"
	"greennfv/internal/rl/ddpg"
)

// Chaos end-to-end test: a full multi-process training round survives
// an actor crash (supervised respawn), degraded networking (fault
// proxy in front of the learner's RPC server) and a SIGKILL of the
// learner process mid-budget (checkpoint/Resume). The trainer runs in
// a subprocess — this test binary re-executes itself with
// GREENNFV_CHAOS_ROLE=trainer — so the parent can kill it with no
// opportunity for cleanup, exactly like a real crash. Its actors are
// this binary again, in the actor role (actorRoleMain), which injects
// the crash.

// Environment variables carrying paths into the trainer subprocess.
const (
	chaosRoleEnv   = "GREENNFV_CHAOS_ROLE"
	chaosCkptEnv   = "GREENNFV_CHAOS_CKPT"
	chaosMarkEnv   = "GREENNFV_CHAOS_MARK"
	chaosStatusEnv = "GREENNFV_CHAOS_STATUS"
	chaosResumeEnv = "GREENNFV_CHAOS_RESUME"
)

// chaosTotalSteps sizes the run so the learner's first interval
// checkpoint lands long before the budget is spent, giving the parent
// a wide window to SIGKILL mid-run.
const chaosTotalSteps = 1200

// chaosConfig is the trainer configuration shared by both phases of
// the chaos run and by the parent's verification restore — all three
// must agree or the checkpoint restore would rightly refuse.
func chaosConfig(ckpt, mark string) TrainerConfig {
	cfg := DefaultTrainerConfig(chaosTotalSteps)
	cfg.RemoteActors = 2
	// Rank 1 crashes once after 10 steps (the marker file disarms the
	// injection for its respawn); -verifyprio keeps the bit-exactness
	// check on batched priorities active throughout the chaos.
	cfg.SpawnRemote = actorArgv("-q", "-verifyprio",
		"-crashat", "10", "-crashrank", "1", "-crashmark", mark)
	cfg.RemoteSpec = testSpec()
	cfg.WarmupSteps = 32
	cfg.VersionEvery = 4
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{16, 16}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 17
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 20
	cfg.CheckpointReplay = true
	cfg.MaxActorRestarts = 3
	cfg.ActorRestartBackoff = 50 * time.Millisecond
	cfg.DrainTimeout = 20 * time.Second
	return cfg
}

// chaosStatus is what the (surviving) trainer subprocess reports back
// to the parent via a JSON file.
type chaosStatus struct {
	ResumedUpdates int    // updates carried by the checkpoint it resumed
	Updates        int    // final LearnSteps after the run
	Transitions    int    // experience received over RPC
	RestoredSHA    string // sha256 of ActorBytes right after an independent restore
}

// restoreSHA independently restores a checkpoint file into a freshly
// built trainer and hashes the actor weights — run in both the parent
// and the trainer subprocess, the two hashes prove the checkpoint is
// bit-exact across processes.
func restoreSHA(cfg TrainerConfig, path string) (string, error) {
	tr, err := NewTrainer(cfg)
	if err != nil {
		return "", err
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		return "", err
	}
	state, err := ddpg.ReadCheckpoint(ck.Agent)
	if err != nil {
		return "", err
	}
	if err := tr.learner.restoreCheckpoint(ck, state); err != nil {
		return "", err
	}
	blob, err := tr.learner.Agent().ActorBytes()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// TestMain diverts re-executed copies of the test binary into the
// actor role or the chaos trainer role; everything else runs the tests
// as usual. The actor argument is checked first: an actor spawned by
// the chaos trainer also carries the trainer's role variable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == actorRoleArg {
		os.Exit(actorRoleMain(os.Args[2:]))
	}
	if os.Getenv(chaosRoleEnv) == "trainer" {
		os.Exit(chaosTrainerMain())
	}
	os.Exit(m.Run())
}

// chaosTrainerMain is the trainer subprocess: learner RPC server
// behind a fault proxy, spawned supervised actor fleet, interval
// checkpoints, optional resume. Phase 1 of the test SIGKILLs it;
// phase 2 runs it to completion and reads the status file.
func chaosTrainerMain() int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "chaos trainer:", err)
		return 1
	}
	cfg := chaosConfig(os.Getenv(chaosCkptEnv), os.Getenv(chaosMarkEnv))
	var (
		tr          *Trainer
		err         error
		restoredSHA string
	)
	resumePath := os.Getenv(chaosResumeEnv)
	if resumePath != "" {
		// Independent verification restore first (hashed and reported),
		// then the real resume through the normal path.
		if restoredSHA, err = restoreSHA(chaosConfig(os.Getenv(chaosCkptEnv), os.Getenv(chaosMarkEnv)), resumePath); err != nil {
			return fail(err)
		}
	}
	// The learner's port is picked free and released before the trainer
	// binds it, so another process can take it in between: a run that
	// finds it taken picks another port and starts over, with a new
	// proxy and a new trainer, up to three attempts.
	for attempt := 1; ; attempt++ {
		tr, err = runChaosTrainer(cfg, resumePath)
		if err == nil || attempt == 3 || !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
		fmt.Fprintln(os.Stderr, "chaos trainer: learner port taken, retrying:", err)
	}
	if err != nil {
		return fail(err)
	}

	_, transitions := tr.Learner().Stats()
	st := chaosStatus{
		ResumedUpdates: tr.resumedUpdates,
		Updates:        tr.Learner().Agent().LearnSteps(),
		Transitions:    transitions,
		RestoredSHA:    restoredSHA,
	}
	out, err := json.Marshal(st)
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(os.Getenv(chaosStatusEnv), out, 0o644); err != nil {
		return fail(err)
	}
	return 0
}

// runChaosTrainer runs one trainer behind a fault proxy on a freshly
// picked learner port, resuming from resumePath when it is set.
func runChaosTrainer(cfg TrainerConfig, resumePath string) (*Trainer, error) {
	// Pre-pick the learner's port so the fault proxy can sit in front
	// of it: actors are pointed at the proxy via AdvertiseAddr.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cfg.ListenAddr = addr
	proxy, err := faultrpc.NewFaultProxy(addr, 42)
	if err != nil {
		return nil, err
	}
	defer proxy.Close()
	proxy.SetRule(faultrpc.FaultRule{DropProb: 0.05, DelayProb: 0.2, Delay: 2 * time.Millisecond})
	cfg.AdvertiseAddr = proxy.Addr()

	tr, err := NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	if resumePath != "" {
		if err := tr.Resume(resumePath); err != nil {
			return nil, err
		}
	}
	return tr, tr.Run()
}

// chaosCmd builds a re-exec of this test binary in the trainer role.
func chaosCmd(t *testing.T, env map[string]string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), chaosRoleEnv+"=trainer")
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	return cmd
}

// TestChaosKillResume is the fault-tolerance end-to-end test:
//
//  1. Phase 1 trains with a lossy/laggy proxy between actors and
//     learner while actor rank 1 crashes and is respawned; the parent
//     waits for an interval checkpoint, then SIGKILLs the trainer.
//  2. The parent restores the surviving checkpoint in-process and
//     hashes the weights.
//  3. Phase 2 resumes from that checkpoint and must finish the FULL
//     original update budget, report the same restored weight hash
//     (bit-exact restore across three independent processes), and keep
//     -verifyprio's bit-exact priority check green throughout.
func TestChaosKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "trainer.ckpt")
	mark := filepath.Join(dir, "crash.marker")
	status := filepath.Join(dir, "status.json")
	env := map[string]string{
		chaosCkptEnv:   ckpt,
		chaosMarkEnv:   mark,
		chaosStatusEnv: status,
	}
	cfg := chaosConfig(ckpt, mark)
	budget := cfg.LearnPerStep * (cfg.TotalSteps - cfg.WarmupSteps)

	// Phase 1: run until the first checkpoint has landed AND rank 1's
	// injected crash has fired, then SIGKILL. The two are unordered
	// (the learner's 20th update races the actor's 10th step, and a
	// fast learner wins it), so the kill waits for both.
	phase1 := chaosCmd(t, env)
	if err := phase1.Start(); err != nil {
		t.Fatal(err)
	}
	defer phase1.Process.Kill()
	deadline := time.Now().Add(90 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("phase 1 produced no checkpoint and injected crash within 90s")
		}
		if ck, err := ReadCheckpoint(ckpt); err == nil && ck.Updates > 0 {
			if _, err := os.Stat(mark); err == nil {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := phase1.Process.Kill(); err != nil { // SIGKILL: no cleanup, no final checkpoint
		t.Fatal(err)
	}
	phase1.Wait()

	// The surviving checkpoint must be valid, mid-budget, and restorable.
	ck, err := ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("checkpoint unreadable after SIGKILL: %v", err)
	}
	if ck.Updates <= 0 || ck.Updates >= budget {
		t.Fatalf("checkpoint carries %d updates; want mid-budget (0, %d)", ck.Updates, budget)
	}
	if _, err := os.Stat(mark); err != nil {
		t.Errorf("crash marker missing: rank 1's injected crash never fired (%v)", err)
	}
	// Copy the checkpoint aside: phase 2 overwrites the live path.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resume := filepath.Join(dir, "resume.ckpt")
	if err := os.WriteFile(resume, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	parentSHA, err := restoreSHA(cfg, resume)
	if err != nil {
		t.Fatalf("parent-side checkpoint restore: %v", err)
	}

	// Phase 2: resume and run the rest of the budget to completion.
	env[chaosResumeEnv] = resume
	phase2 := chaosCmd(t, env)
	if err := phase2.Start(); err != nil {
		t.Fatal(err)
	}
	defer phase2.Process.Kill()
	done := make(chan error, 1)
	go func() { done <- phase2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("resumed trainer failed: %v", err)
		}
	case <-time.After(180 * time.Second):
		t.Fatal("resumed trainer did not finish within 180s")
	}

	var st chaosStatus
	raw, err = os.ReadFile(status)
	if err != nil {
		t.Fatalf("resumed trainer wrote no status: %v", err)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ResumedUpdates != ck.Updates {
		t.Errorf("phase 2 resumed %d updates, parent read %d from the same checkpoint",
			st.ResumedUpdates, ck.Updates)
	}
	if st.Updates != budget {
		t.Errorf("final update count %d, want the full budget %d despite the mid-run kill",
			st.Updates, budget)
	}
	if st.RestoredSHA != parentSHA {
		t.Errorf("restored weight hash differs across processes:\n  child  %s\n  parent %s",
			st.RestoredSHA, parentSHA)
	}
	if st.Transitions == 0 {
		t.Error("resumed trainer received no experience")
	}

	// Temp-file hygiene: the SIGKILL may have torn a checkpoint write,
	// but phase 2's run sweeps leftovers at start and every completed
	// write renames atomically — so the finished suite must leave no
	// stray temps, only the files the test created on purpose.
	if stray, err := atomicio.StrayTemps(ckpt); err != nil || len(stray) != 0 {
		t.Errorf("stray checkpoint temps after suite: %v (err %v)", stray, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"trainer.ckpt": true, "crash.marker": true, "status.json": true, "resume.ckpt": true}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("unexpected file left in test dir: %s", e.Name())
		}
	}
}
