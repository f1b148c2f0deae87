package apex

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"greennfv/internal/rl/ddpg"
)

// This file is the multi-process transport of the concurrent pipeline
// (pipeline.go): the trainer serves its learner over rpcutil (rpc.go),
// optionally spawns and supervises the actor processes (SpawnRemote),
// and drains the round once the learner has stopped. Pacing, budget and
// checkpoints belong to the pipeline; the timers here are the
// supervisor's back-off and the drain's heartbeat watch, neither of
// which paces learning. The actor-process side is remoteactor.go.

// normalizeSpec aligns a remote-actor spec with the trainer: the
// agent template is always the learner's full configuration — the
// same template in-process actors copy, so TD priorities, exploration
// and (above all) network shape cannot silently diverge between
// modes — and unset cadence/sigma fields inherit the trainer's.
func normalizeSpec(spec *ActorSpec, cfg TrainerConfig, agentCfg ddpg.Config) {
	spec.Agent = agentCfg
	if spec.BaseSigma == 0 {
		spec.BaseSigma = cfg.BaseSigma
	}
	if spec.PushEvery == 0 {
		spec.PushEvery = cfg.PushEvery
	}
	if spec.SyncEvery == 0 {
		spec.SyncEvery = cfg.SyncEvery
	}
}

// spawnActor execs one actor process with the normalized spec on its
// stdin. Child stderr is passed through so actor logs interleave with
// the trainer's.
func (t *Trainer) spawnActor(addr string, rank, steps int, specJSON []byte) (*exec.Cmd, error) {
	argvPrefix := t.cfg.SpawnRemote
	args := append(append([]string(nil), argvPrefix[1:]...),
		"-learner", addr,
		"-rank", strconv.Itoa(rank),
		"-steps", strconv.Itoa(steps),
		"-spec", "-",
	)
	cmd := exec.Command(argvPrefix[0], args...)
	cmd.Stdin = bytes.NewReader(specJSON)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("apex: spawn actor %d (%s): %w", rank, argvPrefix[0], err)
	}
	return cmd, nil
}

// fleet is the multi-process transport: the learner's RPC server and,
// when the trainer spawned them, the actor processes — which process
// serves each rank, whether the fleet has been stopped, and the first
// fatal error, shared by the supervisors, the drain and the failure path.
type fleet struct {
	signals // doneCh: every supervisor returned; never closed for an external fleet
	t       *Trainer
	srv     *Server

	mu      sync.Mutex
	cmds    map[int]*exec.Cmd
	stopped bool
	err     error
}

// track records rank's current process — or kills it when the fleet
// has already been stopped, closing the race between a respawn and a
// concurrent stop (reap then reports the stop).
func (f *fleet) track(rank int, cmd *exec.Cmd) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		cmd.Process.Kill()
		return
	}
	f.cmds[rank] = cmd
}

// reap waits for rank's process, clears its entry, and reports whether
// the fleet was stopped meanwhile (the exit is then no crash).
func (f *fleet) reap(rank int, cmd *exec.Cmd) (stopped bool, err error) {
	err = cmd.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.cmds, rank)
	return f.stopped, err
}

// fail records the first fatal fleet error, tells the pipeline, and
// kills every live actor, so the round ends instead of limping on with
// a hole in the ladder.
func (f *fleet) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
		close(f.failedCh)
	}
	f.mu.Unlock()
	f.stop()
}

// stop kills every live actor process and blocks respawns.
func (f *fleet) stop() {
	f.mu.Lock()
	f.stopped = true
	for _, cmd := range f.cmds {
		cmd.Process.Kill()
	}
	f.mu.Unlock()
}

// superviseRank keeps one actor rank alive: spawn, wait, and on a
// crash respawn the same rank — identical sigma/seed ladder rung,
// identical step budget — with jittered exponential backoff, up to
// cfg.MaxActorRestarts times. Respawns stop once the round is
// draining (the rank's crash no longer matters) or the fleet has been
// stopped. A rank that exhausts its restart budget fails the fleet.
func (fl *fleet) superviseRank(addr string, rank, steps int, specJSON []byte) {
	t, service := fl.t, fl.srv.Service()
	jrng := rand.New(rand.NewSource(0x5efa11 + int64(rank)))
	base := t.cfg.ActorRestartBackoff
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	for restarts := 0; ; restarts++ {
		cmd, err := t.spawnActor(addr, rank, steps, specJSON)
		if err != nil {
			fl.fail(err)
			return
		}
		fl.track(rank, cmd)
		stopped, werr := fl.reap(rank, cmd)
		if werr == nil || stopped || service.Draining() {
			return // clean exit, or one that no longer matters
		}
		if restarts >= t.cfg.MaxActorRestarts {
			fl.fail(fmt.Errorf("apex: actor process %d: %w (gave up after %d restarts)",
				rank, werr, restarts))
			return
		}
		// Jittered exponential backoff before the respawn, so several
		// ranks crashed by one fault don't re-register in lockstep.
		d := jitter(backoff(base, 5*time.Second, restarts), jrng)
		fmt.Fprintf(os.Stderr, "apex: actor rank %d crashed (%v); respawn %d/%d in %v\n",
			rank, werr, restarts+1, t.cfg.MaxActorRestarts, d)
		time.Sleep(d)
		if service.Draining() {
			return
		}
	}
}

// serveFleet opens the multi-process transport: serve the learner over
// RPC and launch one supervisor per rank for the actor processes that
// take the given steps between them. With no SpawnRemote the actors are
// external: they connect to ListenAddr and run until drained — nothing
// tells the trainer when they stop, so the round ends only once
// TotalSteps transitions have been received; give such deployments a
// step budget the fleet will actually produce.
func (t *Trainer) serveFleet(steps int) (transport, error) {
	addr := t.cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := Serve(t.learner, t.cfg.RemoteActors, addr)
	if err != nil {
		return nil, fmt.Errorf("apex: remote mode: %w", err)
	}
	var specJSON bytes.Buffer
	if err := t.cfg.RemoteSpec.Encode(&specJSON); err != nil {
		srv.Close()
		return nil, err
	}
	fl := &fleet{signals: newSignals(), t: t, srv: srv, cmds: make(map[int]*exec.Cmd)}
	if len(t.cfg.SpawnRemote) == 0 {
		return fl, nil
	}
	actorAddr := srv.Addr()
	if t.cfg.AdvertiseAddr != "" {
		actorAddr = t.cfg.AdvertiseAddr
	}
	var wg sync.WaitGroup
	for rank := 0; rank < t.cfg.RemoteActors; rank++ {
		share := stepShare(steps, t.cfg.RemoteActors, rank)
		if share == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fl.superviseRank(actorAddr, rank, share, specJSON.Bytes())
		}()
	}
	go func() {
		wg.Wait()
		close(fl.doneCh)
	}()
	return fl, nil
}

// finish drains the round: every subsequent push is still accepted but
// tells its actor to stop. A spawned fleet is then waited for —
// bounded, when DrainTimeout is set, by heartbeat silence, after which
// stragglers are killed so a zombie cannot wedge the round. An external
// fleet is given until its pushes quiesce.
func (fl *fleet) finish() error {
	t, service := fl.t, fl.srv.Service()
	service.BeginDrain()
	switch timeout := t.cfg.DrainTimeout; {
	case len(t.cfg.SpawnRemote) == 0:
		quiesce(t.learner)
	case timeout > 0:
		ticker := time.NewTicker(timeout / 4)
		defer ticker.Stop()
		for !closed(fl.doneCh) {
			select {
			case <-fl.doneCh:
			case <-ticker.C:
				if service.FleetIdle(timeout) {
					fmt.Fprintf(os.Stderr, "apex: drain: no push heartbeat for %v; killing remaining actors\n", timeout)
					fl.stop()
					<-fl.doneCh
				}
			}
		}
	default:
		<-fl.doneCh
	}
	t.remoteStats = service.ActorStats()
	if err := fl.srv.Close(); fl.err == nil {
		return err
	}
	return fl.err // its writers, the supervisors, have all returned
}

// quiesce waits until the learner stops receiving experience (two
// consecutive quiet polls) or a bounded timeout, so external actors'
// in-flight pushes land before the server closes.
func quiesce(l *Learner) {
	const poll = 50 * time.Millisecond
	const limit = 3 * time.Second
	_, last := l.Stats()
	quiet := 0
	for waited := time.Duration(0); waited < limit && quiet < 2; waited += poll {
		time.Sleep(poll)
		_, now := l.Stats()
		if now == last {
			quiet++
		} else {
			quiet = 0
		}
		last = now
	}
}
