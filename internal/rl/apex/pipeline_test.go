package apex

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// actorDriver is the pipeline's in-process test transport: ONE
// goroutine steps the trainer's own actors in rank order, and their
// pushes land straight in the learner's replay, so the pipeline
// runs in a test binary without an actor fleet.
type actorDriver struct {
	signals
	err error // set before failedCh closes
}

// driveActors opens the test transport: the driver goroutine takes
// steps more environment steps and flushes every actor's tail, so a
// window shorter than PushEvery is not lost.
func (t *Trainer) driveActors(steps int) (transport, error) {
	d := &actorDriver{signals: newSignals()}
	go func() {
		defer close(d.doneCh)
		if d.err = t.stepAndFlush(steps); d.err != nil {
			close(d.failedCh) // before doneCh
		}
	}()
	return d, nil
}

// stepAndFlush steps the actors in rank order, steps in all, then
// flushes each one's tail.
func (t *Trainer) stepAndFlush(steps int) error {
	for n := 0; n < steps; {
		for _, actor := range t.actors {
			if n == steps {
				break
			}
			if _, _, err := actor.Step(t.learner); err != nil {
				return err
			}
			n++
		}
	}
	for _, actor := range t.actors {
		if err := actor.Flush(t.learner); err != nil {
			return err
		}
	}
	return nil
}

// finish waits for the driver.
func (d *actorDriver) finish() error {
	<-d.doneCh
	return d.err
}

// runInProcessPipeline trains tr on the concurrent pipeline, fed by
// its own actors through the test transport.
func runInProcessPipeline(tr *Trainer) error { return tr.runPipeline(tr.driveActors) }

// TestTrainersKeepAgentReplay: both modes train on the agent's own
// buffer, the one-stripe replay ddpg.New builds, whatever the core
// count — the buffer Run returns with is the one it started with, one
// stripe, holding the round's experience.
func TestTrainersKeepAgentReplay(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		name string
		run  func(*Trainer) error
	}{
		{"round-robin", (*Trainer).Run},
		{"pipeline", runInProcessPipeline},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultTrainerConfig(200)
			cfg.Actors = 2
			cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
			cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
			cfg.AgentConfig.Hidden = []int{12}
			cfg.AgentConfig.BatchSize = 8
			cfg.AgentConfig.Seed = 3
			tr, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := tr.Learner().Agent().Replay()
			if err := c.run(tr); err != nil {
				t.Fatal(err)
			}
			buf := tr.Learner().Agent().Replay()
			if buf != before {
				t.Error("the run replaced the agent's replay buffer")
			}
			if buf.NumShards() != 1 || buf.Len() == 0 {
				t.Errorf("learner replay has %d stripes and %d transitions, want 1 stripe holding experience", buf.NumShards(), buf.Len())
			}
		})
	}
}

// TestNoBusyWaitInPipeline pins a hard-won property of the concurrent
// pipeline. The learner loop once busy-waited on the replay with a
// 100µs poll and a runtime.Gosched handoff, and the remote mode's
// pacing loop slept 500µs between looks at the received counter; the
// one sampler/learner pipeline (pipeline.go) blocks on channels only —
// the pacing gate waits on the ingest notification — and no polling or
// yield primitive may reappear there. (The supervisor's back-off and
// the drain's heartbeat ticker pace no learning and live in remote.go.)
// A missing pipeline.go fails the test: a rename must not retire it.
func TestNoBusyWaitInPipeline(t *testing.T) {
	const file = "pipeline.go"
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"runtime.Gosched", "time.After", "time.Sleep", "time.Tick"} {
		if strings.Contains(string(src), banned) {
			t.Errorf("%s contains %s — the concurrent pipeline must block on channels, not poll or yield", file, banned)
		}
	}
}

// TestPipelineSpendsBudget: the pipeline's learner completes exactly
// the update budget round-robin attempts at the same step count.
func TestPipelineSpendsBudget(t *testing.T) {
	s, err := sla.NewMaxThroughput(2000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainerConfig(300)
	cfg.Actors = 2
	cfg.StepperFactory = stepperFactory(s)
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{16, 16}
	cfg.AgentConfig.BatchSize = 8
	cfg.AgentConfig.Seed = 5
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := runInProcessPipeline(tr); err != nil {
		t.Fatal(err)
	}
	want := cfg.LearnPerStep * (cfg.TotalSteps - cfg.WarmupSteps)
	if got := tr.Learner().Agent().LearnSteps(); got != want {
		t.Errorf("learner ran %d updates, want %d", got, want)
	}
}

// TestSamplesPerInsertPacesLearner pins the adaptive pacing knob under
// actor starvation: with SamplesPerInsert=1 the learner may consume at
// most one replay sample per inserted transition, so a 2-updates-per-
// step budget (4352 samples' worth) collapses to at most
// TotalSteps/BatchSize updates — the learner blocked for experience
// instead of replaying the stale buffer.
func TestSamplesPerInsertPacesLearner(t *testing.T) {
	cfg := DefaultTrainerConfig(200)
	cfg.Actors = 2
	cfg.LearnPerStep = 2
	cfg.SamplesPerInsert = 1
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{12}
	cfg.AgentConfig.BatchSize = 16
	cfg.AgentConfig.Seed = 19
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := runInProcessPipeline(tr); err != nil {
		t.Fatal(err)
	}
	got := tr.Learner().Agent().LearnSteps()
	maxUpdates := int(cfg.SamplesPerInsert * float64(cfg.TotalSteps) / float64(cfg.AgentConfig.BatchSize))
	budget := cfg.LearnPerStep * (cfg.TotalSteps - cfg.WarmupSteps)
	if maxUpdates >= budget {
		t.Fatalf("test misconfigured: ratio cap %d does not bind budget %d", maxUpdates, budget)
	}
	if got == 0 {
		t.Fatal("paced learner never updated")
	}
	if got > maxUpdates {
		t.Errorf("learner ran %d updates, SamplesPerInsert=%v allows at most %d",
			got, cfg.SamplesPerInsert, maxUpdates)
	}
}
