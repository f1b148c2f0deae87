package apex

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// TestParallelInstallsShardedReplay: the parallel pipeline must swap
// the learner onto a buffer striped over the parallelism available
// before experience flows.
func TestParallelInstallsShardedReplay(t *testing.T) {
	cfg := DefaultTrainerConfig(200)
	cfg.Actors = 2
	cfg.Parallel = true
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{12}
	cfg.AgentConfig.BatchSize = 8
	cfg.AgentConfig.Seed = 3
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	buf := tr.Learner().Agent().Replay()
	if want := min(max(runtime.GOMAXPROCS(0), 2), 16); buf.NumShards() != want {
		t.Errorf("shards = %d, want %d", buf.NumShards(), want)
	}
	if buf.Len() == 0 {
		t.Error("sharded replay received no experience")
	}
}

// TestRoundRobinKeepsSingleTreeReplay: the deterministic mode must
// not change buffers — its one shard samples exactly as the single-tree
// buffer the recorded figures were made with did.
func TestRoundRobinKeepsSingleTreeReplay(t *testing.T) {
	cfg := DefaultTrainerConfig(100)
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
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if buf := tr.Learner().Agent().Replay(); buf.NumShards() != 1 || buf.Len() == 0 {
		t.Fatalf("round-robin learner replay has %d shards and %d transitions, want 1 shard holding experience", buf.NumShards(), buf.Len())
	}
}

// TestNoBusyWaitInParallel pins two hard-won properties of the
// concurrent modes. The learner loop once busy-waited on the replay
// with a 100µs poll and a runtime.Gosched handoff, and the remote
// mode's pacing loop slept 500µs between looks at the received counter;
// the one sampler/learner pipeline (pipeline.go) blocks on channels only
// — the pacing gate waits on the ingest notification in both modes —
// and no polling or yield primitive may reappear there. And the
// per-actor goroutines once needed a cooperative Gosched so one actor
// could not monopolize a core; the single driver goroutine (parallel.go)
// has no sibling goroutines to starve, so no yield or sleep belongs in
// the acting half either. (The supervisor's back-off and the drain's
// heartbeat ticker pace no learning and live in remote.go.) A listed
// file that is missing fails the test: a rename must not retire it.
func TestNoBusyWaitInParallel(t *testing.T) {
	for _, file := range []string{"pipeline.go", "parallel.go"} {
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
	cfg.Parallel = true
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
	if err := tr.Run(); err != nil {
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
