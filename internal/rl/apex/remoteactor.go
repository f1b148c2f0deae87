package apex

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"greennfv/internal/rpcutil"
)

// This file is the actor-process side of the multi-process mode: a
// LearnerAPI implementation that survives learner restarts
// (RemoteLearner) and the run loop cmd/apexactor executes
// (RunRemoteActor). The trainer-process side is remote.go.

// RemoteLearner is a LearnerAPI backed by an RPC connection that
// redials with jittered exponential backoff when the transport fails,
// so a learner restart (or a transient network fault) does not kill
// the actor. Errors returned by the learner itself are not retried,
// except ErrUnregisteredActor: the learner restarted and lost this
// actor's epoch, so it re-registers and tries once more.
// ErrStaleActorEpoch is always fatal: this actor has been superseded by
// a respawn and must exit.
//
// A RemoteLearner is used by one actor goroutine; it is not
// goroutine-safe beyond the internal reconnect bookkeeping.
type RemoteLearner struct {
	addr    string
	actorID int

	// MaxRetries bounds redial attempts per call (total tries =
	// MaxRetries+1); Backoff is the initial retry delay, doubling per
	// attempt up to MaxBackoff — without the cap a raised MaxRetries
	// against a flapping learner means multi-minute sleeps that stall
	// the actor long after the learner is back.
	MaxRetries int
	Backoff    time.Duration
	MaxBackoff time.Duration
	// CallTimeout is the per-call deadline applied to every dialed
	// connection (rpcutil.Conn.Timeout): on expiry the call fails with
	// a retryable DeadlineError and the connection is torn down. Zero
	// disables deadlines.
	CallTimeout time.Duration

	mu      sync.Mutex
	client  *rpcutil.Conn
	version int         // newest parameter version pulled, reported in pushes
	epoch   uint64      // issued by Register; 0 — never registered — is rejected
	jrng    *rand.Rand  // backoff jitter source
	drain   atomic.Bool // learner asked us to stop
}

// NewRemoteLearner builds a lazily-dialing client for the learner at
// addr, identifying itself as actor actorID; the first RPC dials. The
// jitter stream is seeded per actor ID so a fleet's redial schedules
// decorrelate deterministically.
func NewRemoteLearner(addr string, actorID int) *RemoteLearner {
	return &RemoteLearner{
		addr:        addr,
		actorID:     actorID,
		MaxRetries:  5,
		Backoff:     50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		CallTimeout: DefaultCallTimeout,
		jrng:        rand.New(rand.NewSource(0x6e6676 + int64(actorID)*2654435761)),
	}
}

// backoff is the capped exponential retry delay: base doubled attempt
// times, clamped to limit (the doubling is overflow-safe for any
// attempt count).
func backoff(base, limit time.Duration, attempt int) time.Duration {
	d := base
	for ; attempt > 0 && d < limit; attempt-- {
		d *= 2
	}
	return min(d, limit)
}

// jitter spreads d uniformly over [d/2, d], so processes that lost
// their peer at the same instant do not come back in lockstep (the
// thundering-herd failure mode of synchronized retry schedules).
func jitter(d time.Duration, rng *rand.Rand) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// backoffFor returns the base sleep before retry attempt+1: Backoff
// doubled attempt times, capped at MaxBackoff (2s when unset).
func (r *RemoteLearner) backoffFor(attempt int) time.Duration {
	limit := r.MaxBackoff
	if limit <= 0 {
		limit = 2 * time.Second
	}
	return backoff(r.Backoff, limit, attempt)
}

// jitteredBackoff is backoffFor with this actor's jitter stream.
func (r *RemoteLearner) jitteredBackoff(attempt int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return jitter(r.backoffFor(attempt), r.jrng)
}

// conn returns the live connection, dialing if needed.
func (r *RemoteLearner) conn() (*rpcutil.Conn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == nil {
		c, err := rpcutil.Dial(r.addr, r.CallTimeout)
		if err != nil {
			return nil, err
		}
		r.client = c
	}
	return r.client, nil
}

// dropConn discards a connection observed failing, so the next call
// redials. Only drops it if no other call already replaced it.
func (r *RemoteLearner) dropConn(c *rpcutil.Conn) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c == nil || r.client != c {
		return nil
	}
	r.client = nil
	return c.Close()
}

// retriable reports whether an RPC error is transport-level (worth a
// redial) rather than an application error from the learner itself.
// The learner's own errors arrive as rpcutil.ServerError; everything
// else here — deadline expiries included — is a connection fault.
func retriable(err error) bool {
	_, isApp := err.(rpcutil.ServerError)
	return !isApp
}

// register announces the actor on c and adopts the epoch the learner
// issues: the one registration path, taken at startup (Register) and
// again whenever a call is rejected with ErrUnregisteredActor.
func (r *RemoteLearner) register(c *rpcutil.Conn) (int, error) {
	var reply RegisterReply
	if err := c.Call("Learner.Register", &RegisterArgs{ActorID: r.actorID}, &reply); err != nil {
		return 0, err
	}
	r.mu.Lock()
	r.epoch = reply.Epoch
	r.version = max(r.version, reply.Version)
	r.mu.Unlock()
	return reply.Version, nil
}

// call runs one RPC exchange, redialing with capped jittered
// exponential backoff on transport failures. do issues the request on
// the connection it is handed and builds its arguments per attempt, so
// a retry after a mid-call re-registration carries the fresh epoch.
// Once the learner has signalled drain the first transport failure is
// final: the round is over, and retrying a vanished learner would only
// delay the actor's exit.
func (r *RemoteLearner) call(method string, do func(c *rpcutil.Conn) error) error {
	var lastErr error
	for attempt := 0; attempt <= r.MaxRetries; attempt++ {
		c, err := r.conn()
		if err == nil {
			if err = do(c); err == nil {
				return nil
			}
			if !retriable(err) {
				if IsUnregisteredActor(err) && attempt < r.MaxRetries {
					// Learner restarted (fresh service, no epochs):
					// re-register and burn this attempt on a repeat.
					if _, rerr := r.register(c); rerr == nil {
						lastErr = err
						continue
					}
				}
				return err
			}
			r.dropConn(c)
		}
		lastErr = err
		if r.Draining() {
			return fmt.Errorf("apex: %s to %s failed while draining (not retried): %w",
				method, r.addr, lastErr)
		}
		if attempt < r.MaxRetries {
			time.Sleep(r.jitteredBackoff(attempt))
		}
	}
	return fmt.Errorf("apex: %s to %s failed after %d attempts: %w",
		method, r.addr, r.MaxRetries+1, lastErr)
}

// Register announces the actor, stores the issued epoch, and returns
// the learner's current parameter version.
func (r *RemoteLearner) Register() (int, error) {
	var version int
	err := r.call("Learner.Register", func(c *rpcutil.Conn) (err error) {
		version, err = r.register(c)
		return err
	})
	return version, err
}

// PushExperience implements LearnerAPI, tagging the batch with the
// actor's rank, registration epoch and current parameter version and
// latching the learner's drain signal from the reply. A ragged batch
// is refused before the call, naming the row and the field: the push
// layout carries one state and one action width.
func (r *RemoteLearner) PushExperience(batch []Experience) error {
	if err := checkRectangular(batch); err != nil {
		return err
	}
	var reply PushReply
	err := r.call("Learner.Push", func(c *rpcutil.Conn) error {
		r.mu.Lock()
		args := &PushArgs{Batch: batch, ActorID: r.actorID, Epoch: r.epoch, Version: r.version}
		r.mu.Unlock()
		return c.Call("Learner.Push", args, &reply)
	})
	if err != nil {
		return err
	}
	if reply.Drain {
		r.drain.Store(true)
	}
	return nil
}

// checkRectangular refuses a batch unless every row's State and
// NextState are as long as row 0's State and every Action as long as
// row 0's.
func checkRectangular(batch []Experience) error {
	if len(batch) == 0 {
		return nil
	}
	stateDim, actionDim := len(batch[0].State), len(batch[0].Action)
	for i := range batch {
		e := &batch[i]
		for _, f := range [...]struct {
			name     string
			got, dim int
		}{{"State", len(e.State), stateDim}, {"Action", len(e.Action), actionDim}, {"NextState", len(e.NextState), stateDim}} {
			if f.got != f.dim {
				return fmt.Errorf("apex: push row %d: %s has %d entries, want %d as in row 0", i, f.name, f.got, f.dim)
			}
		}
	}
	return nil
}

// PullParams implements LearnerAPI.
func (r *RemoteLearner) PullParams(haveVersion int) (int, []byte, error) {
	var reply PullReply
	err := r.call("Learner.Pull", func(c *rpcutil.Conn) error {
		r.mu.Lock()
		args := &PullArgs{HaveVersion: haveVersion, ActorID: r.actorID, Epoch: r.epoch}
		r.mu.Unlock()
		return c.Call("Learner.Pull", args, &reply)
	})
	if err != nil {
		return 0, nil, err
	}
	r.mu.Lock()
	r.version = max(r.version, reply.Version)
	r.mu.Unlock()
	return reply.Version, reply.ActorBytes, nil
}

// ReleaseParams implements LearnerAPI. It does nothing: the bytes are
// the reply's own copy (PullReply.ReadWire).
func (r *RemoteLearner) ReleaseParams([]byte) {}

// RetainsExperience implements LearnerAPI: pushes are encoded as rows
// inside the synchronous call (even across redials the batch is fully
// encoded per attempt), so the caller's slices are free for reuse when
// PushExperience returns.
func (r *RemoteLearner) RetainsExperience() bool { return false }

// Draining reports whether the learner has asked this actor to stop.
func (r *RemoteLearner) Draining() bool { return r.drain.Load() }

// Close releases the connection.
func (r *RemoteLearner) Close() error {
	r.mu.Lock()
	c := r.client
	r.mu.Unlock()
	return r.dropConn(c)
}

var _ LearnerAPI = (*RemoteLearner)(nil)

// RemoteActorOptions parameterizes one remote actor run.
type RemoteActorOptions struct {
	// Addr is the learner's RPC address.
	Addr string
	// Rank is the actor's position on the exploration ladder (also
	// its ActorID in learner-side stats).
	Rank int
	// Steps overrides the spec's step budget when positive; with both
	// zero the actor runs until the learner signals drain.
	Steps int
	// VerifyPriorities enables the actor's batched-vs-scalar priority
	// self-check (ActorConfig.VerifyPriorities); used by tests to prove
	// the batched TD-error path is bit-identical across processes.
	VerifyPriorities bool
	// Logf, when non-nil, receives progress messages.
	Logf func(format string, args ...any)
}

// RunRemoteActor is the main loop of an actor process: build the
// environment and local network from the spec, register with the
// learner, sync the initial parameters, then step/push/pull until the
// step budget is spent or the learner drains the round, and flush the
// local buffer before returning. A crashed actor process loses at most
// PushEvery-1 unflushed transitions; the supervising trainer respawns
// the rank on its rung.
func RunRemoteActor(spec ActorSpec, opt RemoteActorOptions) error {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	e, err := spec.BuildEnv(opt.Rank)
	if err != nil {
		return fmt.Errorf("apex: actor %d env: %w", opt.Rank, err)
	}
	acfg := spec.agentConfig(e.StateDim(), e.ActionDim(), opt.Rank)
	actor, err := NewActor(ActorConfig{
		ID: opt.Rank, Env: e, AgentConfig: acfg,
		PushEvery: spec.PushEvery, SyncEvery: spec.SyncEvery,
		VerifyPriorities: opt.VerifyPriorities,
	})
	if err != nil {
		return fmt.Errorf("apex: actor %d: %w", opt.Rank, err)
	}

	learner := NewRemoteLearner(opt.Addr, opt.Rank)
	defer learner.Close()
	version, err := learner.Register()
	if err != nil {
		return fmt.Errorf("apex: actor %d register: %w", opt.Rank, err)
	}
	logf("actor %d registered with learner %s (param version %d, sigma %.3f)",
		opt.Rank, opt.Addr, version, acfg.OUSigma)
	// Start on the learner's current policy rather than this
	// process's fresh random weights.
	if err := actor.SyncParams(learner); err != nil {
		return fmt.Errorf("apex: actor %d initial sync: %w", opt.Rank, err)
	}

	steps := opt.Steps
	if steps <= 0 {
		steps = spec.Steps
	}
	for i := 0; steps <= 0 || i < steps; i++ {
		if _, _, err := actor.Step(learner); err != nil {
			return fmt.Errorf("apex: actor %d step %d: %w", opt.Rank, i, err)
		}
		if learner.Draining() {
			logf("actor %d draining after %d steps", opt.Rank, actor.Steps())
			break
		}
	}
	if err := actor.Flush(learner); err != nil {
		return fmt.Errorf("apex: actor %d flush: %w", opt.Rank, err)
	}
	logf("actor %d done: %d env steps", opt.Rank, actor.Steps())
	return nil
}
