package apex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"greennfv/internal/rl/replay"
	"greennfv/internal/rpcutil"
)

// The RPC transport lets actors run in separate processes or on
// separate machines, matching the paper's six-node deployment where
// NF controllers on the chain-hosting servers feed one central
// learner. The transport is internal/rpcutil; the trainer's remote
// mode (remote.go) serves a Learner here and spawns cmd/apexactor
// processes against it; LearnerService adds the connection lifecycle.
//
// The six messages implement rpcutil.Wire. Every field is fixed-width
// little-endian, as in the trainer checkpoint (ints as two's-complement
// 64-bit), every count is checked against the bytes present before
// anything is sized by it, and a body with bytes left over is an error:
//
//	RegisterArgs   i64 actorID
//	RegisterReply  i64 version | u64 epoch
//	PushArgs       i64 actorID | u64 epoch | i64 version |
//	               u32 S | u32 A | u32 n | n × row (replay.AppendRow);
//	               S = A = 0 when n is 0, both at least 1 otherwise
//	PushReply      i64 accepted | u8 drain (0, 1)
//	PullArgs       i64 haveVersion | i64 actorID | u64 epoch
//	PullReply      i64 version | the parameter frame, to the end
//
// A push row is the replay snapshot's row with the experience's raw
// priority in the leaf slot, so PushArgs.ReadWire vets what it reads
// with the replay's own decoder (replay.ReadRows): a non-finite float,
// a negative priority or a done byte other than 0 or 1 gets the push
// refused by row and field before it reaches the service. The layout
// carries one state and one action width per push, so a push is
// rectangular by construction; LearnerService.Push compares the widths
// with the learner's.
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

// errBadWire refuses a message body that is not its layout.
var errBadWire = errors.New("apex: malformed message")

// le is the byte order of every apex layout.
var le = binary.LittleEndian

// RegisterArgs announces an actor to the learner.
type RegisterArgs struct {
	ActorID int
}

// AppendWire implements rpcutil.Wire.
func (a *RegisterArgs) AppendWire(dst []byte) []byte {
	return le.AppendUint64(dst, uint64(int64(a.ActorID)))
}

// ReadWire implements rpcutil.Wire.
func (a *RegisterArgs) ReadWire(body []byte) error {
	if len(body) != 8 {
		return errBadWire
	}
	a.ActorID = int(int64(le.Uint64(body)))
	return nil
}

// RegisterReply returns the current parameter version, so a fresh
// actor can pull immediately, and the epoch it must echo in every call.
type RegisterReply struct {
	Version int
	Epoch   uint64
}

// AppendWire implements rpcutil.Wire.
func (r *RegisterReply) AppendWire(dst []byte) []byte {
	dst = le.AppendUint64(dst, uint64(int64(r.Version)))
	return le.AppendUint64(dst, r.Epoch)
}

// ReadWire implements rpcutil.Wire.
func (r *RegisterReply) ReadWire(body []byte) error {
	if len(body) != 16 {
		return errBadWire
	}
	r.Version, r.Epoch = int(int64(le.Uint64(body))), le.Uint64(body[8:])
	return nil
}

// PushArgs is the RPC request for experience submission.
type PushArgs struct {
	// Batch is the experience, rows of one state and one action width
	// (RemoteLearner.PushExperience refuses a ragged batch before the
	// call; AppendWire writes every row at the widths of row 0's State
	// and Action, which only a rectangular batch fills).
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

// pushHeaderLen is a PushArgs before its rows: actor ID, epoch,
// version, S, A, n.
const pushHeaderLen = 3*8 + 3*4

// AppendWire implements rpcutil.Wire.
func (a *PushArgs) AppendWire(dst []byte) []byte {
	var stateDim, actionDim int
	if len(a.Batch) > 0 {
		stateDim, actionDim = len(a.Batch[0].State), len(a.Batch[0].Action)
	}
	dst = le.AppendUint64(dst, uint64(int64(a.ActorID)))
	dst = le.AppendUint64(dst, a.Epoch)
	dst = le.AppendUint64(dst, uint64(int64(a.Version)))
	dst = le.AppendUint32(dst, uint32(stateDim))
	dst = le.AppendUint32(dst, uint32(actionDim))
	dst = le.AppendUint32(dst, uint32(len(a.Batch)))
	for i := range a.Batch {
		e := &a.Batch[i]
		dst = replay.AppendRow(dst, e.Priority, replay.Transition{
			State: e.State, Action: e.Action, Reward: e.Reward, NextState: e.NextState, Done: e.Done})
	}
	return dst
}

// ReadWire implements rpcutil.Wire. The rows must fill the body at the
// declared widths, which an empty push declares as 0 and a non-empty
// one as at least 1, and pass replay.ReadRows. Batch is new storage,
// one backing array for every row's floats, which the replay keeps; it
// is nil when the push carries no rows.
func (a *PushArgs) ReadWire(body []byte) error {
	if len(body) < pushHeaderLen {
		return fmt.Errorf("apex: push of %d bytes, shorter than its %d-byte header", len(body), pushHeaderLen)
	}
	stateDim, actionDim, n := le.Uint32(body[24:]), le.Uint32(body[28:]), le.Uint32(body[32:])
	rows := body[pushHeaderLen:]
	if (n == 0) != (stateDim == 0) || (n == 0) != (actionDim == 0) {
		return fmt.Errorf("apex: push of %d rows %d/%d wide", n, stateDim, actionDim)
	}
	width := uint64(replay.RowLen(int(stateDim), int(actionDim)))
	if hi, size := bits.Mul64(uint64(n), width); hi != 0 || size != uint64(len(rows)) {
		return fmt.Errorf("apex: push of %d rows of %d bytes in %d", n, width, len(rows))
	}
	var batch []Experience
	if n > 0 {
		batch = make([]Experience, n)
	}
	if err := replay.ReadRows(rows, int(stateDim), int(actionDim), func(i int, leaf float64, t replay.Transition) {
		batch[i] = Experience{State: t.State, Action: t.Action, Reward: t.Reward, NextState: t.NextState, Done: t.Done, Priority: leaf}
	}); err != nil {
		return fmt.Errorf("apex: push: %w", err)
	}
	a.ActorID, a.Epoch, a.Version = int(int64(le.Uint64(body))), le.Uint64(body[8:]), int(int64(le.Uint64(body[16:])))
	a.Batch = batch
	return nil
}

// PushReply acknowledges a push.
type PushReply struct {
	Accepted int
	// Drain tells the actor the learner has spent its budget: stop
	// generating experience and exit cleanly. The pushed batch is
	// still accepted.
	Drain bool
}

// AppendWire implements rpcutil.Wire.
func (r *PushReply) AppendWire(dst []byte) []byte {
	drain := byte(0)
	if r.Drain {
		drain = 1
	}
	return append(le.AppendUint64(dst, uint64(int64(r.Accepted))), drain)
}

// ReadWire implements rpcutil.Wire.
func (r *PushReply) ReadWire(body []byte) error {
	if len(body) != 9 || body[8] > 1 {
		return errBadWire
	}
	r.Accepted, r.Drain = int(int64(le.Uint64(body))), body[8] == 1
	return nil
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

// AppendWire implements rpcutil.Wire.
func (a *PullArgs) AppendWire(dst []byte) []byte {
	dst = le.AppendUint64(dst, uint64(int64(a.HaveVersion)))
	dst = le.AppendUint64(dst, uint64(int64(a.ActorID)))
	return le.AppendUint64(dst, a.Epoch)
}

// ReadWire implements rpcutil.Wire.
func (a *PullArgs) ReadWire(body []byte) error {
	if len(body) != 24 {
		return errBadWire
	}
	a.HaveVersion, a.ActorID, a.Epoch = int(int64(le.Uint64(body))), int(int64(le.Uint64(body[8:]))), le.Uint64(body[16:])
	return nil
}

// PullReply carries the current version and, when newer, the actor
// network's parameter frame (nil otherwise).
type PullReply struct {
	Version    int
	ActorBytes []byte
}

// AppendWire implements rpcutil.Wire.
func (r *PullReply) AppendWire(dst []byte) []byte {
	return append(le.AppendUint64(dst, uint64(int64(r.Version))), r.ActorBytes...)
}

// ReadWire implements rpcutil.Wire. ActorBytes is a copy, nil when the
// reply carries no frame; the actor checks the frame when it loads it
// (ddpg.View.LoadActorBytes).
func (r *PullReply) ReadWire(body []byte) error {
	if len(body) < 8 {
		return errBadWire
	}
	r.Version, r.ActorBytes = int(int64(le.Uint64(body))), nil
	if len(body) > 8 {
		r.ActorBytes = append([]byte(nil), body[8:]...)
	}
	return nil
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

// LearnerService is what a Learner is served through. Beyond the two
// LearnerAPI methods it tracks per-actor statistics, registration
// epochs and last-push heartbeats, and carries the drain signal that
// ends a remote training round gracefully.
type LearnerService struct {
	learner   *Learner
	fleet     int // actor IDs are ranks in [0, fleet)
	drain     atomic.Bool
	mu        sync.Mutex
	actors    map[int]*actorRec
	nextEpoch uint64
}

// NewLearnerService wraps a learner for a fleet of the given number of
// actors (TrainerConfig.RemoteActors), whose IDs are their ranks.
func NewLearnerService(learner *Learner, fleet int) *LearnerService {
	return &LearnerService{learner: learner, fleet: fleet, actors: make(map[int]*actorRec)}
}

// Handlers is the service's RPC methods, keyed by the names actors
// call.
func (s *LearnerService) Handlers() map[string]rpcutil.Handler {
	return map[string]rpcutil.Handler{
		"Learner.Register": rpcutil.Method(s.Register),
		"Learner.Push":     rpcutil.Method(s.Push),
		"Learner.Pull":     rpcutil.Method(s.Pull),
	}
}

// Register is the RPC method actors call at startup — and again after
// a learner restart or a supervised respawn. Each call issues a fresh
// epoch, implicitly fencing off any zombie still holding the previous
// one. An ID that is not a rank of the fleet is refused before it
// becomes a record, so no peer grows the table past the fleet.
func (s *LearnerService) Register(args *RegisterArgs, reply *RegisterReply) error {
	if args.ActorID < 0 || args.ActorID >= s.fleet {
		return fmt.Errorf("apex: actor ID %d is not a rank of a %d-actor fleet", args.ActorID, s.fleet)
	}
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
	v, data, err := s.learner.PullParams(0)
	if err != nil {
		return err
	}
	s.learner.ReleaseParams(data) // only the version is replied
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
// and batches whose widths are not the learner's, are rejected before
// the batch touches the statistics or the replay; ReadWire has already
// refused a malformed row.
func (s *LearnerService) Push(args *PushArgs, reply *PushReply) error {
	s.mu.Lock()
	rec, err := s.checkActor(args.ActorID, args.Epoch)
	if cfg := s.learner.agent.Config(); err == nil && len(args.Batch) > 0 {
		if e := &args.Batch[0]; len(e.State) != cfg.StateDim || len(e.Action) != cfg.ActionDim {
			err = fmt.Errorf("apex: push of %d-wide states and %d-wide actions to a learner of %d and %d",
				len(e.State), len(e.Action), cfg.StateDim, cfg.ActionDim)
		}
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

// Pull is the RPC method actors call to refresh parameters, with the
// same registration check as Push. The reply is encoded after the
// handler returns, so the frame is never released: the learner's next
// version goes into a new buffer.
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

// Serve starts an RPC server for the learner and a fleet of the given
// number of actors on addr (e.g. "127.0.0.1:0" for an ephemeral port).
// It returns once listening; connections are served in the background
// until Close.
func Serve(learner *Learner, fleet int, addr string) (*Server, error) {
	if learner == nil {
		return nil, errors.New("apex: nil learner")
	}
	service := NewLearnerService(learner, fleet)
	srv, err := rpcutil.ServeHandlers(addr, service.Handlers())
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
