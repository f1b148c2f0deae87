package apex

// actorDriver is the in-process transport of the concurrent pipeline
// (pipeline.go): ONE goroutine steps the trainer's actors through the
// loop round-robin uses (Trainer.stepActors) and their pushes land
// straight in the learner's lock-striped replay, so wall-clock time
// approaches max(actor time, learner time), not their sum.
type actorDriver struct {
	signals
	err error // set before failedCh closes
}

// driveActors opens the in-process transport: the driver goroutine takes
// steps more environment steps, counting on from the steps a resumed run
// had already taken — read here, because from now on the pipeline's
// checkpoint path owns t.steps — and flushes every actor's tail, so a
// window shorter than PushEvery is not lost.
func (t *Trainer) driveActors(steps int) (transport, error) {
	d := &actorDriver{signals: newSignals()}
	go func(from int) {
		defer close(d.doneCh)
		d.err = t.stepActors(from, from+steps, func(int) {})
		for i := 0; d.err == nil && i < len(t.actors); i++ {
			d.err = t.actors[i].Flush(t.learner)
		}
		if d.err != nil {
			close(d.failedCh) // before doneCh
		}
	}(t.steps)
	return d, nil
}

// finish waits for the driver.
func (d *actorDriver) finish() error {
	<-d.doneCh
	return d.err
}
