package apex

import (
	"testing"
	"time"

	"greennfv/internal/rl/ddpg"
)

// rpcLearner builds a small learner for transport tests.
func rpcLearner(t *testing.T) *Learner {
	t.Helper()
	cfg := ddpg.DefaultConfig(4, 3)
	cfg.Hidden = []int{8}
	cfg.BatchSize = 4
	agent, err := ddpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	learner, err := NewLearner(agent)
	if err != nil {
		t.Fatal(err)
	}
	return learner
}

// testFleet is the fleet size the tests serve a learner for: ranks 0
// to 7, as many as any test's actors.
const testFleet = 8

// singleShot is a RemoteLearner that issues every call exactly once —
// no redial, no re-registration — so a test sees the learner's own
// answer to that call rather than the client's recovery from it.
func singleShot(addr string, actorID int) *RemoteLearner {
	rl := NewRemoteLearner(addr, actorID)
	rl.MaxRetries = 0
	return rl
}

func rpcBatch(n int) []Experience {
	batch := make([]Experience, n)
	for i := range batch {
		batch[i] = Experience{
			State: []float64{1, 2, 3, 4}, Action: []float64{0.1, 0.2, 0.3},
			Reward: 0.5, NextState: []float64{4, 3, 2, 1}, Priority: 1,
		}
	}
	return batch
}

// TestPushOnStoppedLearner pins the failure mode of pushing to a
// learner whose server is gone: a client without retries fails
// immediately, and one with a redial budget fails only after
// exhausting it, with the transport error preserved in the chain.
func TestPushOnStoppedLearner(t *testing.T) {
	learner := rpcLearner(t)
	srv, err := Serve(learner, testFleet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client := singleShot(addr, 0)
	defer client.Close()
	if _, err := client.Register(); err != nil {
		t.Fatal(err)
	}
	if err := client.PushExperience(rpcBatch(2)); err != nil {
		t.Fatalf("push to live server: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if err := client.PushExperience(rpcBatch(2)); err == nil {
		t.Error("push on stopped learner succeeded")
	}
	if _, _, err := client.PullParams(0); err == nil {
		t.Error("pull on stopped learner succeeded")
	}

	rl := NewRemoteLearner(addr, 0)
	rl.MaxRetries = 2
	rl.Backoff = time.Millisecond
	defer rl.Close()
	start := time.Now()
	if err := rl.PushExperience(rpcBatch(2)); err == nil {
		t.Error("remote push on stopped learner succeeded")
	}
	// 2 retries at 1ms + 2ms backoff: well under a second even on a
	// loaded box, and proof the retry loop terminates.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("retry loop took %v", elapsed)
	}
}

// TestPullStaleVersion pins PullParams semantics over RPC: a stale
// version gets the full parameter payload, the current version gets
// nil bytes.
func TestPullStaleVersion(t *testing.T) {
	learner := rpcLearner(t)
	srv, err := Serve(learner, testFleet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := singleShot(srv.Addr(), 0)
	defer client.Close()
	if _, err := client.Register(); err != nil {
		t.Fatal(err)
	}

	v, data, err := client.PullParams(0) // stale: learner starts at 1
	if err != nil {
		t.Fatal(err)
	}
	if v < 1 || len(data) == 0 {
		t.Errorf("stale pull returned version %d, %d bytes; want params", v, len(data))
	}
	v2, data2, err := client.PullParams(v) // current
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v || data2 != nil {
		t.Errorf("current pull returned version %d, %d bytes; want %d, nil", v2, len(data2), v)
	}
}

// TestClientReconnectAfterRestart restarts the server on the same
// address and checks that a RemoteLearner carries on (redial and
// re-register) — the property that lets a killed learner come back
// without wedging its actor fleet.
func TestClientReconnectAfterRestart(t *testing.T) {
	learner := rpcLearner(t)
	srv, err := Serve(learner, testFleet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	rl := NewRemoteLearner(addr, 3)
	rl.Backoff = time.Millisecond
	defer rl.Close()
	if err := rl.PushExperience(rpcBatch(1)); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := Serve(learner, testFleet, addr)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	if err := rl.PushExperience(rpcBatch(1)); err != nil {
		t.Errorf("remote learner did not survive server restart: %v", err)
	}
	if _, _, err := rl.PullParams(0); err != nil {
		t.Errorf("pull after restart: %v", err)
	}

	// The restarted service starts with fresh per-actor stats; the
	// push above must be attributed to actor 3.
	stats := srv2.Service().ActorStats()
	if st := stats[3]; st.Pushes != 1 || st.Transitions != 1 {
		t.Errorf("actor 3 stats after reconnect: %+v", st)
	}
}

// TestDrainSignal pins the graceful-drain contract: after BeginDrain
// a push is still accepted (the experience is not wasted) but the
// reply carries the stop signal, which RemoteLearner latches.
func TestDrainSignal(t *testing.T) {
	learner := rpcLearner(t)
	srv, err := Serve(learner, testFleet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rl := NewRemoteLearner(srv.Addr(), 1)
	defer rl.Close()
	if _, err := rl.Register(); err != nil {
		t.Fatal(err)
	}
	if err := rl.PushExperience(rpcBatch(2)); err != nil {
		t.Fatal(err)
	}
	if rl.Draining() {
		t.Fatal("draining before BeginDrain")
	}

	srv.Service().BeginDrain()
	if !srv.Service().Draining() {
		t.Error("service does not report draining")
	}
	if err := rl.PushExperience(rpcBatch(3)); err != nil {
		t.Fatalf("push during drain rejected: %v", err)
	}
	if !rl.Draining() {
		t.Error("actor did not latch the drain signal")
	}
	_, transitions := learner.Stats()
	if transitions != 5 {
		t.Errorf("learner holds %d transitions, want 5 (drain must not drop batches)", transitions)
	}
	st := srv.Service().ActorStats()[1]
	if !st.Registered || st.Pushes != 2 || st.Transitions != 5 {
		t.Errorf("actor 1 stats: %+v", st)
	}
}
