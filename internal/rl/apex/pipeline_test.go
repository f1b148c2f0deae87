package apex

import (
	"os"
	"strings"
	"testing"

	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
	"greennfv/internal/sla"
)

// TestParallelInstallsShardedReplay: the parallel pipeline must swap
// the learner onto the lock-striped buffer before experience flows,
// and honor an explicit shard count.
func TestParallelInstallsShardedReplay(t *testing.T) {
	cfg := DefaultTrainerConfig(200)
	cfg.Actors = 2
	cfg.Parallel = true
	cfg.ReplayShards = 4
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
	sharded, ok := tr.Learner().Agent().Replay().(*replay.Sharded)
	if !ok {
		t.Fatalf("parallel learner replay is %T, want *replay.Sharded", tr.Learner().Agent().Replay())
	}
	if sharded.NumShards() != 4 {
		t.Errorf("shards = %d, want 4", sharded.NumShards())
	}
	if sharded.Len() == 0 {
		t.Error("sharded replay received no experience")
	}
}

// TestRoundRobinKeepsSingleTreeReplay: the deterministic mode must
// not change buffers — its sampling stream is what the recorded
// figures depend on.
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
	if _, ok := tr.Learner().Agent().Replay().(*replay.Prioritized); !ok {
		t.Fatalf("round-robin learner replay is %T, want *replay.Prioritized", tr.Learner().Agent().Replay())
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
// could not monopolize a core; the single batched VecActor driver
// (parallel.go, vecactor.go) has no sibling goroutines to starve, so no
// yield or sleep belongs in the acting half either. (The supervisor's
// back-off and the drain's heartbeat ticker pace no learning and live
// in remote.go.)
func TestNoBusyWaitInParallel(t *testing.T) {
	for _, file := range []string{"pipeline.go", "parallel.go", "vecactor.go"} {
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
