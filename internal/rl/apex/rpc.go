package apex

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"greennfv/internal/rpcutil"
)

// The RPC transport lets actors run in separate processes or on
// separate machines, matching the paper's six-node deployment where
// NF controllers on the chain-hosting servers feed one central
// learner. The transport is internal/rpcutil; these messages have no
// layout of their own, so each crosses as one gob value inside a frame
// — a push or a pull is hundreds of transitions or a whole parameter
// frame, which amortises gob. The trainer's remote
// mode (remote.go) serves a Learner here and spawns cmd/apexactor
// processes against it; LearnerService adds the connection lifecycle.
//
// Fault-tolerance contract: every Push/Pull carries the actor's
// (ID, epoch) pair issued by Register. A call without a live
// registration fails with ErrUnregisteredActor (retryable after
// re-registering — the normal path after a learner restart, whose
// fresh service has no epochs); a call with a superseded epoch fails
// with ErrStaleActorEpoch (fatal — the supervisor already respawned
// this rank, so the zombie must exit rather than corrupt its
// replacement's statistics). Per-call deadlines bound every client
// RPC so a hung connection can never wedge an actor. The client side
// is RemoteLearner (remoteactor.go).

// DefaultCallTimeout bounds one RPC round-trip (dial excluded) unless
// the caller overrides it. Pushes and pulls move a few hundred KB at
// most; ten seconds is orders of magnitude above healthy latency while
// still unwedging a dead connection quickly.
const DefaultCallTimeout = 10 * time.Second

// Typed RPC failures. A server-side error crosses as its message only
// (rpcutil.ServerError), so cross-process matching is by message
// prefix: keep these strings stable.
var (
	// ErrUnregisteredActor rejects a Push/Pull whose actor has no live
	// registration on this learner instance. Retryable: register (or
	// re-register, after a learner restart) and repeat the call.
	ErrUnregisteredActor = errors.New("apex: unregistered actor")
	// ErrStaleActorEpoch rejects a Push/Pull carrying an epoch that a
	// newer Register for the same actor ID has superseded. Fatal: the
	// caller is a zombie (its rank was respawned) and must exit.
	ErrStaleActorEpoch = errors.New("apex: stale actor epoch")
)

// IsUnregisteredActor reports whether err is an ErrUnregisteredActor
// rejection, locally or over RPC.
func IsUnregisteredActor(err error) bool { return rpcutil.Matches(err, ErrUnregisteredActor) }

// PushArgs is the RPC request for experience submission.
type PushArgs struct {
	Batch []Experience
	// ActorID identifies the pushing actor (its rank) for the
	// learner-side per-actor statistics.
	ActorID int
	// Epoch is the registration epoch Register issued to this actor;
	// pushes from superseded epochs are rejected (ErrStaleActorEpoch).
	Epoch uint64
	// Version is the parameter version the actor is currently acting
	// with, so the learner can observe broadcast propagation.
	Version int
}

// PushReply acknowledges a push.
type PushReply struct {
	Accepted int
	// Drain tells the actor the learner has spent its budget: stop
	// generating experience and exit cleanly. The pushed batch is
	// still accepted.
	Drain bool
}

// RegisterArgs announces an actor to the learner.
type RegisterArgs struct {
	ActorID int
}

// RegisterReply returns the current parameter version, so a fresh
// actor can pull immediately, and the epoch it must echo in every call.
type RegisterReply struct {
	Version int
	Epoch   uint64
}

// PullArgs requests parameters newer than HaveVersion, authenticated
// by the caller's registration.
type PullArgs struct {
	HaveVersion int
	// ActorID and Epoch identify the registered caller, with the same
	// rejection semantics as PushArgs.
	ActorID int
	Epoch   uint64
}

// PullReply carries the current version and, when newer, the
// serialized actor network.
type PullReply struct {
	Version    int
	ActorBytes []byte
}

// ActorStats is the learner-side record of one remote actor's
// connection lifecycle: what it pushed and which parameter version it
// last reported acting with.
type ActorStats struct {
	// Registered is true once the actor announced itself.
	Registered bool
	// Pushes and Transitions count experience submissions.
	Pushes, Transitions int
	// LastVersion is the newest parameter version the actor reported
	// (in a Push); it trails the learner's version by at most one
	// SyncEvery interval, which is how tests observe broadcast
	// propagation.
	LastVersion int
	// Restarts counts how many times Register superseded a previous
	// registration of the same actor ID (supervised respawns and
	// learner-restart re-registrations both land here).
	Restarts int
}

// actorRec is the service's internal per-actor record: the public
// stats plus the liveness state the fault-tolerance layer tracks.
type actorRec struct {
	ActorStats
	epoch    uint64
	lastPush time.Time
}

// LearnerService is the receiver a Learner is served through. Beyond the
// two LearnerAPI methods it tracks per-actor statistics, registration
// epochs and last-push heartbeats, and carries the drain signal that
// ends a remote training round gracefully.
type LearnerService struct {
	learner   *Learner
	drain     atomic.Bool
	mu        sync.Mutex
	actors    map[int]*actorRec
	nextEpoch uint64
}

// NewLearnerService wraps a learner for RPC registration.
func NewLearnerService(learner *Learner) *LearnerService {
	return &LearnerService{learner: learner, actors: make(map[int]*actorRec)}
}

// Register is the RPC method actors call at startup — and again after
// a learner restart or a supervised respawn. Each call issues a fresh
// epoch, implicitly fencing off any zombie still holding the previous
// one.
func (s *LearnerService) Register(args *RegisterArgs, reply *RegisterReply) error {
	s.mu.Lock()
	rec, ok := s.actors[args.ActorID]
	if !ok {
		rec = &actorRec{}
		s.actors[args.ActorID] = rec
	}
	if rec.Registered {
		rec.Restarts++
	}
	rec.Registered = true
	s.nextEpoch++
	rec.epoch = s.nextEpoch
	rec.lastPush = time.Now()
	reply.Epoch = rec.epoch
	s.mu.Unlock()
	v, _, err := s.learner.PullParams(0)
	if err != nil {
		return err
	}
	reply.Version = v
	return nil
}

// checkActor validates a caller's (ID, epoch) pair and returns its
// record. Caller holds mu.
func (s *LearnerService) checkActor(id int, epoch uint64) (*actorRec, error) {
	rec, ok := s.actors[id]
	if !ok || !rec.Registered {
		return nil, fmt.Errorf("%w %d: register first", ErrUnregisteredActor, id)
	}
	if epoch != rec.epoch {
		return nil, fmt.Errorf("%w: actor %d epoch %d superseded by %d",
			ErrStaleActorEpoch, id, epoch, rec.epoch)
	}
	return rec, nil
}

// Push is the RPC method actors call to submit experience. A batch
// pushed while the service is draining is still accepted (the
// experience is real; dropping it would waste actor work), but the
// reply tells the actor to stop. Unregistered or superseded callers,
// and batches with a malformed row (vetExperience), are rejected
// before the batch touches the statistics or the replay.
func (s *LearnerService) Push(args *PushArgs, reply *PushReply) error {
	s.mu.Lock()
	rec, err := s.checkActor(args.ActorID, args.Epoch)
	if err == nil {
		cfg := s.learner.agent.Config()
		err = vetExperience(args.Batch, cfg.StateDim, cfg.ActionDim)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	rec.Pushes++
	rec.Transitions += len(args.Batch)
	if args.Version > rec.LastVersion {
		rec.LastVersion = args.Version
	}
	rec.lastPush = time.Now()
	s.mu.Unlock()
	if err := s.learner.PushExperience(args.Batch); err != nil {
		return err
	}
	reply.Accepted = len(args.Batch)
	reply.Drain = s.drain.Load()
	return nil
}

// vetExperience refuses a batch arriving from outside the process
// unless every row has stateDim State and NextState entries and
// actionDim Action entries, all finite, a finite Reward and a finite,
// non-negative Priority. The replay copies rows without looking, so one
// short or NaN row would otherwise poison every later update and the
// policy broadcast from it.
func vetExperience(batch []Experience, stateDim, actionDim int) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for i := range batch {
		e := &batch[i]
		for _, f := range [...]struct {
			name string
			v    []float64
			dim  int
		}{{"State", e.State, stateDim}, {"Action", e.Action, actionDim}, {"NextState", e.NextState, stateDim}} {
			if len(f.v) != f.dim {
				return fmt.Errorf("apex: push row %d: %s has %d entries, want %d", i, f.name, len(f.v), f.dim)
			}
			for j, x := range f.v {
				if !finite(x) {
					return fmt.Errorf("apex: push row %d: %s[%d] is %v", i, f.name, j, x)
				}
			}
		}
		if !finite(e.Reward) {
			return fmt.Errorf("apex: push row %d: Reward is %v", i, e.Reward)
		}
		if !finite(e.Priority) || e.Priority < 0 {
			return fmt.Errorf("apex: push row %d: Priority is %v", i, e.Priority)
		}
	}
	return nil
}

// Pull is the RPC method actors call to refresh parameters, with the
// same registration check as Push.
func (s *LearnerService) Pull(args *PullArgs, reply *PullReply) error {
	s.mu.Lock()
	_, err := s.checkActor(args.ActorID, args.Epoch)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	v, data, err := s.learner.PullParams(args.HaveVersion)
	if err != nil {
		return err
	}
	reply.Version = v
	reply.ActorBytes = data
	return nil
}

// BeginDrain flips the drain flag: every subsequent Push reply asks
// its actor to stop. Called by the trainer once the update budget is
// spent (or the experience target reached).
func (s *LearnerService) BeginDrain() { s.drain.Store(true) }

// Draining reports whether drain has begun.
func (s *LearnerService) Draining() bool { return s.drain.Load() }

// ActorStats returns a copy of the per-actor records.
func (s *LearnerService) ActorStats() map[int]ActorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]ActorStats, len(s.actors))
	for id, rec := range s.actors {
		out[id] = rec.ActorStats
	}
	return out
}

// FleetIdle reports whether no registered actor has pushed within the
// given window — the heartbeat view a draining trainer uses to detect
// a wedged fleet. A fleet with no registered actors is idle.
func (s *LearnerService) FleetIdle(window time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := time.Now().Add(-window)
	for _, rec := range s.actors {
		if rec.Registered && rec.lastPush.After(cutoff) {
			return false
		}
	}
	return true
}

// Server hosts a Learner over TCP via a rpcutil.Server, which tracks
// its open connections so Close can tear them down instead of waiting
// for every actor to hang up.
type Server struct {
	service *LearnerService
	srv     *rpcutil.Server
}

// Serve starts an RPC server for the learner on addr (e.g.
// "127.0.0.1:0" for an ephemeral port). It returns once listening;
// connections are served in the background until Close.
func Serve(learner *Learner, addr string) (*Server, error) {
	if learner == nil {
		return nil, errors.New("apex: nil learner")
	}
	service := NewLearnerService(learner)
	srv, err := rpcutil.Serve("Learner", service, addr)
	if err != nil {
		return nil, err
	}
	return &Server{service: service, srv: srv}, nil
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Service exposes the RPC service for lifecycle control (drain,
// per-actor stats).
func (s *Server) Service() *LearnerService { return s.service }

// Close stops accepting connections, disconnects the remaining
// clients, and waits for in-flight handlers. Actors surviving the
// learner see transport errors, which RemoteLearner retries until the
// learner returns or its backoff budget runs out.
func (s *Server) Close() error { return s.srv.Close() }

var _ LearnerAPI = (*Learner)(nil)
