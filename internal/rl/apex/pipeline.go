package apex

import (
	"math/rand"

	"greennfv/internal/rl/replay"
)

// This file is the one concurrent learner pipeline, fed by the remote
// actor fleet (remote.go: the RPC server plus the actor processes):
//
//	transport ── PushExperience ──▶ replay (the agent's one-stripe buffer)
//	sampler ── pacing gate ── SampleInto ──▶ ready ──▶ learner (LearnBatchStep, checkpoints)
//
// The sampler prefetches the next minibatch while the learner consumes
// the current one, and every stage blocks on channels — the gate on the
// learner's ingest notification, never on a timer
// (TestNoBusyWaitInPipeline keeps polls and yields out of this file).

// transport is the experience side of a concurrent round: whatever
// steps environments and pushes their transitions to t.learner, opened
// once the learner is set up with the environment steps still to take.
// The fleet is the one production transport; the interface is the seam
// the pipeline's in-process tests feed it through.
type transport interface {
	// done is closed once no more experience will arrive: the
	// producers finished their steps, or died. A fleet the trainer did
	// not spawn never closes it.
	done() <-chan struct{}
	// failed is closed when the producers hit a fatal error. The
	// learner stops at once: a failed round is not trained on.
	failed() <-chan struct{}
	// finish ends the producer side once the learner has stopped (wait
	// for the driver; drain and shut down the fleet) and returns the
	// producers' fatal error, if any.
	finish() error
}

// signals are the two channels a transport shows the pipeline.
type signals struct{ doneCh, failedCh chan struct{} }

func newSignals() signals { return signals{make(chan struct{}), make(chan struct{})} }

func (s signals) done() <-chan struct{}   { return s.doneCh }
func (s signals) failed() <-chan struct{} { return s.failedCh }

// closed reports whether a signal has fired.
func closed(signal <-chan struct{}) bool {
	select {
	case <-signal:
		return true
	default:
		return false
	}
}

// runPipeline executes one concurrent round: set the learner up, open
// the transport for the steps still to take, spend what is left of the
// update budget as the pacing rule allows, and close the transport.
// NOT deterministic: sampling interleaves with ingest on the
// scheduler's terms.
func (t *Trainer) runPipeline(open func(steps int) (transport, error)) error {
	// The learner trains on the agent's own buffer, the one-stripe
	// replay round-robin uses; a replay snapshot replaces it with one
	// of the snapshot's stripe count.
	if err := t.applyResume(); err != nil {
		return err
	}
	tp, err := open(max(t.cfg.TotalSteps-t.steps, 0))
	if err != nil {
		return err
	}
	learnErr := t.learn(tp)
	err = tp.finish()
	t.steps = t.received()
	if learnErr != nil {
		return learnErr
	}
	return err
}

// received is a concurrent round's progress in environment steps: the
// transitions that reached the learner, which is what a checkpoint's
// replay and pacing counters describe.
func (t *Trainer) received() int {
	return min(int(t.learner.received.Load()), t.cfg.TotalSteps)
}

// allowedUpdates is the one pacing rule (package doc, "Learner
// pacing"): how many updates the learner may have completed once
// received transitions have arrived. Never more than the budget; while
// producers run, no further ahead of the experience than round-robin's
// cadence; with SamplesPerInsert set, at most that many replay samples
// per inserted transition — a cap that outlives the producers, so what
// it still withholds then is given up, not spent on a stale buffer.
func (t *Trainer) allowedUpdates(budget, batch, received int, producersDone bool) int {
	allowed := budget
	if !producersDone {
		allowed = min(budget, t.cfg.LearnPerStep*(received-t.cfg.WarmupSteps))
	}
	if spi := t.cfg.SamplesPerInsert; spi > 0 {
		allowed = min(allowed, int(spi*float64(received)/float64(batch)))
	}
	return allowed
}

// minibatch is one prefetched sample set. Two rotate through the
// free/ready channels; their slices are reused for the whole run, so
// the steady-state learner loop allocates nothing.
type minibatch struct {
	samples []replay.Transition
	indices []int
	weights []float64
}

// learn spends the update budget on this goroutine: it consumes the
// minibatches the sampler releases, writes the interval checkpoints
// between updates, and returns when the budget is spent, the pacing
// gate can never open again, or the producers fail. The budget is
// counted in completed updates from the agent's LearnSteps — nonzero
// after a resume — where round-robin counts LearnStep attempts.
func (t *Trainer) learn(tp transport) error {
	agent := t.learner.Agent()
	batch := agent.Config().BatchSize
	budget := t.cfg.LearnPerStep * (t.cfg.TotalSteps - t.cfg.WarmupSteps)
	updates := agent.LearnSteps()

	// Each channel can hold both minibatches, so no send ever blocks.
	free := make(chan *minibatch, 2)
	ready := make(chan *minibatch, 2)
	free <- new(minibatch) // their slices grow on the first draw
	free <- new(minibatch)
	// An early return releases the sampler and waits for it to exit.
	quit := make(chan struct{})
	defer func() {
		close(quit)
		for range ready {
		}
	}()

	go func() { // sampler
		defer close(ready)
		// The sampler's own stream: every stratum of every draw reads it.
		rng := rand.New(rand.NewSource(agent.Config().Seed*0x5DEECE66D + 11))
		for produced := updates; produced < budget; produced++ {
			// Pacing gate: block on ingest until the rule allows this
			// update and the replay holds a batch to draw.
			for {
				producersDone := closed(tp.done()) // read before the count it qualifies
				received := int(t.learner.received.Load())
				if produced < t.allowedUpdates(budget, batch, received, producersDone) && agent.BufferLen() >= batch {
					break
				}
				if producersDone {
					return // nothing more will arrive to open the gate
				}
				select {
				case <-t.learner.ingestCh: // recheck with the fresh insert count
				case <-tp.done():
				case <-tp.failed():
					return
				case <-quit:
					return
				}
			}
			var mb *minibatch
			select {
			case mb = <-free:
			case <-quit:
				return
			}
			mb.samples, mb.indices, mb.weights = agent.SampleReplayInto(rng, batch, mb.samples, mb.indices, mb.weights)
			if mb.samples == nil {
				return // no priority mass to draw from
			}
			ready <- mb
		}
	}()

	lastCkpt := updates
	for mb := range ready {
		if closed(tp.failed()) {
			return nil // finish reports why
		}
		t.learner.LearnBatchStep(mb.samples, mb.indices, mb.weights, t.cfg.VersionEvery)
		free <- mb
		if every := t.cfg.CheckpointEvery; t.cfg.CheckpointPath != "" && every > 0 && agent.LearnSteps()-lastCkpt >= every {
			t.steps = t.received()
			if err := t.Checkpoint(t.cfg.CheckpointPath); err != nil {
				return err
			}
			lastCkpt = agent.LearnSteps()
		}
	}
	return nil
}
