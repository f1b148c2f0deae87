package apex

import (
	"fmt"

	"greennfv/internal/env"
	"greennfv/internal/rl/ddpg"
)

// vecDriver is the in-process transport of the concurrent pipeline
// (pipeline.go): ONE goroutine steps all actors through a VecEnv with a
// single batched policy pass per step (vecactor.go) and pushes their
// staged chunks straight into the learner's lock-striped replay, so
// wall-clock time approaches max(actor time, learner time), not their
// sum.
type vecDriver struct {
	signals
	t   *Trainer
	va  *VecActor
	err error // set before failedCh closes
}

// driveVecActor opens the in-process transport: it builds the batched
// driver over the round-robin actors' resources — their environments
// back the VecEnv, actor 0's agent becomes the shared policy, each
// actor's ladder rung (sigma, private seed) a VecActor noise lane — and
// starts it for the given steps.
func (t *Trainer) driveVecActor(steps int) (transport, error) {
	envs := make([]*env.Env, len(t.actors))
	ladder := make([]ddpg.Config, len(t.actors))
	for i, a := range t.actors {
		se, ok := a.Env().(*env.Env)
		if !ok {
			// VecEnv vectorizes the single-node env's fixed layout;
			// cluster environments train through round-robin instead.
			return nil, fmt.Errorf("apex: Parallel requires single-node environments, actor %d has %T", i, a.Env())
		}
		envs[i] = se
		ladder[i] = a.agent.Config()
	}
	vec, err := env.NewVecEnv(envs)
	if err != nil {
		return nil, err
	}
	acfg := t.learner.Agent().Config()
	vec.Reset(acfg.Seed)
	vagent := t.actors[0].agent
	// With Float32, acting and TD-error priorities run through the
	// vectorized f32 engine too — a different agent from the learner's,
	// so the two precision switches never share a network.
	vagent.SetActFloat32(t.cfg.Float32)
	d := &vecDriver{
		signals: newSignals(),
		t:       t,
		va: newVecActor(vagent, vec, noiseLadder(acfg.ActionDim, ladder),
			t.cfg.PushEvery, t.cfg.SyncEvery),
	}
	go d.run(steps, t.steps)
	return d, nil
}

// run is the driver goroutine; on failure failedCh closes before doneCh.
func (d *vecDriver) run(steps, base int) {
	defer close(d.doneCh)
	if err := d.step(steps, base); err != nil {
		d.err = fmt.Errorf("apex: vec actor: %w", err)
		close(d.failedCh)
	}
}

// step takes steps environment steps — whole rounds, then a remainder
// over the lowest lanes — recording lane 0's snapshots (episodes count
// on from base, the steps a resumed run had already taken), and
// flushes the tail so a window shorter than PushEvery is not lost.
func (d *vecDriver) step(steps, base int) error {
	t, va, n := d.t, d.va, d.va.n
	lastSnap := base
	for r := 0; r < steps/n; r++ {
		reward0, info0, err := va.StepRound(t.learner)
		if err != nil {
			return err
		}
		if at := base + va.Steps(); t.cfg.SnapshotEvery > 0 && at >= lastSnap+t.cfg.SnapshotEvery {
			lastSnap = at - at%t.cfg.SnapshotEvery
			t.Snapshots = append(t.Snapshots, SnapshotOf(at, va.vec.Env(0), info0, reward0))
		}
	}
	if err := va.StepRemainder(t.learner, steps%n); err != nil {
		return err
	}
	return va.Flush(t.learner)
}

// finish waits for the driver and attributes its steps back to the
// per-actor records.
func (d *vecDriver) finish() error {
	<-d.doneCh
	d.va.agent.SetActFloat32(false)
	for i, a := range d.t.actors {
		a.steps = stepShare(d.va.Steps(), d.va.n, i)
	}
	return d.err
}
