package apex

import (
	"errors"
	"io"
	"math"
	"net"
	"strings"
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
	srv, err := Serve(learner, testFleet, "127.0.0.1:0")
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

// TestRegisterRefusesIDOutsideFleet pins the fleet bound: a peer that
// registers as -1 or as the fleet size is refused with an error, over
// the wire and in process, and leaves no record behind — so no peer
// grows the per-actor table, or the stats the trainer reports, past
// the fleet — while a rank of the fleet still registers.
func TestRegisterRefusesIDOutsideFleet(t *testing.T) {
	srv, err := Serve(rpcLearner(t), testFleet, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, id := range []int{-1, testFleet, 1 << 62} {
		client := singleShot(srv.Addr(), id)
		_, err := client.Register()
		client.Close()
		var se rpcutil.ServerError
		if !errors.As(err, &se) || !strings.Contains(err.Error(), "fleet") {
			t.Errorf("register as %d over the wire: %v, want the learner's refusal", id, err)
		}
		if err := srv.Service().Register(&RegisterArgs{ActorID: id}, &RegisterReply{}); err == nil {
			t.Errorf("register as %d in process accepted", id)
		}
	}
	if stats := srv.Service().ActorStats(); len(stats) != 0 {
		t.Errorf("refused IDs left records behind: %+v", stats)
	}
	client := singleShot(srv.Addr(), testFleet-1)
	defer client.Close()
	if _, err := client.Register(); err != nil {
		t.Fatalf("register as rank %d: %v", testFleet-1, err)
	}
	if stats := srv.Service().ActorStats(); len(stats) != 1 || !stats[testFleet-1].Registered {
		t.Errorf("a rank of the fleet registered as %+v", stats)
	}
}

// TestPushRejectsMalformedExperience pins the vetting of pushed
// experience: a batch with one row of the wrong shape (refused by the
// client, which cannot lay it out), a non-finite float or an impossible
// priority (refused by the push layout's decoder), or with every row of
// a width not the learner's (refused by the learner) is refused whole,
// by row and field, before it reaches the statistics or the replay, and
// an honest push afterwards, on the same connection, is accepted.
// Without the vetting one such push reached the replay and a few
// updates later every weight of the broadcast policy was NaN.
func TestPushRejectsMalformedExperience(t *testing.T) {
	serve := func() (*Learner, *Server, *RemoteLearner) {
		learner := rpcLearner(t)
		srv, err := Serve(learner, testFleet, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		client := singleShot(srv.Addr(), 0)
		t.Cleanup(func() { client.Close() })
		if _, err := client.Register(); err != nil {
			t.Fatal(err)
		}
		return learner, srv, client
	}
	learner, srv, client := serve()

	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, field string
		spoil       func(e *Experience)
	}{
		{"short state", "State", func(e *Experience) { e.State = e.State[:1] }},
		{"long state", "State", func(e *Experience) { e.State = append(e.State, 5) }},
		{"missing state", "State", func(e *Experience) { e.State = nil }},
		{"short next state", "NextState", func(e *Experience) { e.NextState = e.NextState[:3] }},
		{"short action", "Action", func(e *Experience) { e.Action = e.Action[:2] }},
		{"NaN in state", "State", func(e *Experience) { e.State[2] = nan }},
		{"Inf in next state", "NextState", func(e *Experience) { e.NextState[0] = -inf }},
		{"NaN in action", "Action", func(e *Experience) { e.Action[1] = nan }},
		{"NaN reward", "Reward", func(e *Experience) { e.Reward = nan }},
		{"Inf reward", "Reward", func(e *Experience) { e.Reward = inf }},
		{"NaN priority", "Priority", func(e *Experience) { e.Priority = nan }},
		{"Inf priority", "Priority", func(e *Experience) { e.Priority = inf }},
		{"negative priority", "Priority", func(e *Experience) { e.Priority = -1 }},
	}
	for _, tc := range cases {
		batch := rpcBatch(3)
		tc.spoil(&batch[1])
		before := learner.Agent().BufferLen()
		stats := srv.Service().ActorStats()[0]
		err := client.PushExperience(batch)
		if err == nil {
			t.Errorf("%s: malformed push accepted", tc.name)
		} else if msg := err.Error(); !strings.Contains(msg, "row 1") || !strings.Contains(msg, tc.field) {
			t.Errorf("%s: error %q does not name row 1 and %s", tc.name, msg, tc.field)
		}
		if got := learner.Agent().BufferLen(); got != before {
			t.Errorf("%s: replay grew from %d to %d on a refused push", tc.name, before, got)
		}
		if got := srv.Service().ActorStats()[0]; got != stats {
			t.Errorf("%s: refused push changed the actor's stats: %+v, was %+v", tc.name, got, stats)
		}
		if err := client.PushExperience(rpcBatch(2)); err != nil {
			t.Errorf("%s: honest push after the refusal: %v", tc.name, err)
		}
		if got := learner.Agent().BufferLen(); got != before+2 {
			t.Errorf("%s: replay holds %d after an honest push, want %d", tc.name, got, before+2)
		}
	}

	// Every row one width, but not the learner's: the layout carries
	// the batch, and the learner refuses it whole.
	wide := rpcBatch(3)
	for i := range wide {
		wide[i].State, wide[i].NextState = append(wide[i].State, 5), append(wide[i].NextState, 5)
	}
	before, stats := learner.Agent().BufferLen(), srv.Service().ActorStats()[0]
	if err := client.PushExperience(wide); err == nil || !strings.Contains(err.Error(), "learner of 4 and 3") {
		t.Errorf("push of 5-wide states to a 4-wide learner: %v", err)
	}
	if got := learner.Agent().BufferLen(); got != before {
		t.Errorf("wrong-width push: replay grew from %d to %d", before, got)
	}
	if got := srv.Service().ActorStats()[0]; got != stats {
		t.Errorf("wrong-width push changed the actor's stats: %+v, was %+v", got, stats)
	}
	if err := client.PushExperience(rpcBatch(2)); err != nil {
		t.Errorf("honest push after the wrong-width push: %v", err)
	}

	// The poisoning push, on a fresh learner: a truncated state and a
	// NaN reward must not reach the policy the learner broadcasts.
	learner, _, client = serve()
	if err := client.PushExperience(rpcBatch(8)); err != nil {
		t.Fatal(err)
	}
	poison := rpcBatch(1)
	poison[0].State, poison[0].Reward = poison[0].State[:1], nan
	if err := client.PushExperience(poison); err == nil {
		t.Error("poisoning push accepted")
	}
	for i := 0; i < 20; i++ {
		learner.LearnStep(1)
	}
	for _, p := range learner.Agent().Actor.ParamSlices() {
		for _, w := range p {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("actor weight %v after 20 updates", w)
			}
		}
	}
}

// TestStaleEpochRejected pins zombie fencing: when a respawned actor
// re-registers under the same ID, the service issues a fresh epoch and
// the original connection's calls fail with the fatal stale-epoch
// error instead of corrupting the new incarnation's accounting.
func TestStaleEpochRejected(t *testing.T) {
	learner := rpcLearner(t)
	srv, err := Serve(learner, testFleet, "127.0.0.1:0")
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
	srv, err := Serve(learner, testFleet, "127.0.0.1:0")
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
