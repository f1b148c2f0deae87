package apex

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"greennfv/internal/rpcutil"
)

// TestUnregisteredActorRejected pins the registration gate: Push and
// Pull from an actor ID the service has never seen are rejected with
// the typed error and must not allocate a stats entry (the pre-fix
// behavior silently accepted and attributed them).
func TestUnregisteredActorRejected(t *testing.T) {
	learner := rpcLearner(t)
	srv, err := Serve(learner, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := singleShot(srv.Addr(), 0)
	defer client.Close()

	err = client.PushExperience(rpcBatch(2))
	if !IsUnregisteredActor(err) {
		t.Errorf("unregistered push error = %v, want ErrUnregisteredActor", err)
	}
	if _, _, err := client.PullParams(0); !IsUnregisteredActor(err) {
		t.Errorf("unregistered pull error = %v, want ErrUnregisteredActor", err)
	}
	if stats := srv.Service().ActorStats(); len(stats) != 0 {
		t.Errorf("rejected actor left stats behind: %+v", stats)
	}
	if _, transitions := learner.Stats(); transitions != 0 {
		t.Errorf("rejected push still delivered %d transitions", transitions)
	}

	// After registering, the same client is accepted.
	if _, err := client.Register(); err != nil {
		t.Fatal(err)
	}
	if err := client.PushExperience(rpcBatch(2)); err != nil {
		t.Errorf("registered push: %v", err)
	}
}

// TestStaleEpochRejected pins zombie fencing: when a respawned actor
// re-registers under the same ID, the service issues a fresh epoch and
// the original connection's calls fail with the fatal stale-epoch
// error instead of corrupting the new incarnation's accounting.
func TestStaleEpochRejected(t *testing.T) {
	learner := rpcLearner(t)
	srv, err := Serve(learner, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	zombie := singleShot(srv.Addr(), 7)
	defer zombie.Close()
	if _, err := zombie.Register(); err != nil {
		t.Fatal(err)
	}
	if err := zombie.PushExperience(rpcBatch(1)); err != nil {
		t.Fatal(err)
	}

	respawn := singleShot(srv.Addr(), 7)
	defer respawn.Close()
	if _, err := respawn.Register(); err != nil {
		t.Fatal(err)
	}

	err = zombie.PushExperience(rpcBatch(1))
	if !rpcutil.Matches(err, ErrStaleActorEpoch) {
		t.Errorf("zombie push error = %v, want ErrStaleActorEpoch", err)
	}
	if _, _, err := zombie.PullParams(0); !rpcutil.Matches(err, ErrStaleActorEpoch) {
		t.Errorf("zombie pull error = %v, want ErrStaleActorEpoch", err)
	}
	if err := respawn.PushExperience(rpcBatch(3)); err != nil {
		t.Errorf("respawned actor push: %v", err)
	}

	st := srv.Service().ActorStats()[7]
	if st.Restarts != 1 {
		t.Errorf("actor 7 restarts = %d, want 1", st.Restarts)
	}
	if st.Pushes != 2 || st.Transitions != 4 {
		t.Errorf("actor 7 stats after fencing: %+v", st)
	}
}

// TestJitteredBackoffBounds pins the reconnect backoff jitter: every
// draw lands in [d/2, d] of the deterministic schedule (which
// TestRetryBackoffCap pins separately), and draws actually vary so a
// crashed fleet does not reconnect in lockstep.
func TestJitteredBackoffBounds(t *testing.T) {
	rl := NewRemoteLearner("127.0.0.1:1", 4)
	defer rl.Close()
	rl.Backoff = 100 * time.Millisecond
	rl.MaxBackoff = 2 * time.Second

	for attempt := 0; attempt < 8; attempt++ {
		base := rl.backoffFor(attempt)
		distinct := map[time.Duration]bool{}
		for i := 0; i < 100; i++ {
			d := rl.jitteredBackoff(attempt)
			if d < base/2 || d > base {
				t.Fatalf("attempt %d: jittered backoff %v outside [%v, %v]", attempt, d, base/2, base)
			}
			distinct[d] = true
		}
		if len(distinct) < 2 {
			t.Errorf("attempt %d: 100 draws produced %d distinct values, want jitter", attempt, len(distinct))
		}
	}
}

// TestCallDeadline pins the per-call deadline: against a server that
// accepts connections but never answers, a call fails with a typed,
// retryable DeadlineError in bounded time instead of hanging forever.
func TestCallDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn) // swallow requests, never reply
		}
	}()

	client := singleShot(ln.Addr().String(), 0)
	defer client.Close()
	client.CallTimeout = 50 * time.Millisecond

	start := time.Now()
	_, rerr := client.Register()
	elapsed := time.Since(start)
	var de *rpcutil.DeadlineError
	if !errors.As(rerr, &de) {
		t.Fatalf("black-hole call error = %v, want DeadlineError", rerr)
	}
	if de.Method != "Learner.Register" || de.Timeout != client.CallTimeout {
		t.Errorf("deadline error fields: %+v", de)
	}
	if !retriable(rerr) {
		t.Error("deadline error is not retryable")
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline call took %v, want ~%v", elapsed, client.CallTimeout)
	}
}

// TestServerCloseUnderLoad hammers Push/Pull from many goroutines
// while the server shuts down; run under -race this pins that Close
// racing in-flight calls neither panics nor deadlocks, and that every
// in-flight call terminates (with success or a transport error) once
// the server is gone.
func TestServerCloseUnderLoad(t *testing.T) {
	learner := rpcLearner(t)
	srv, err := Serve(learner, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := singleShot(srv.Addr(), id)
			defer client.Close()
			client.CallTimeout = 2 * time.Second
			if _, err := client.Register(); err != nil {
				return // server may already be closing
			}
			<-start
			for i := 0; ; i++ {
				if err := client.PushExperience(rpcBatch(1)); err != nil {
					return
				}
				if _, _, err := client.PullParams(0); err != nil {
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(10 * time.Millisecond) // let the load build
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers still blocked 30s after server Close")
	}
}
