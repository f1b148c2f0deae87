package apex

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"greennfv/internal/cluster"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// The round-robin loop is the reference path: every recorded figure
// and bench/'s train_rr replica are byte-pinned to it. These are the
// SHA-256 of whole round-robin runs — the learner's serialized policy,
// every snapshot field, the experience counters and the update count —
// recorded at PR 16's tree (2712f09), before Parallel and Remote were
// merged into one pipeline beside it: first with the AVX2 kernels nn
// selects on this hardware, then with its pure-Go kernels (the two sum
// in different orders, and this package cannot ask nn which it chose,
// so a run must match one of the pair). A change that moves any bit of
// a round-robin run moves these; a deliberate one re-records them
// (go test -run TestTrainerFingerprint -v prints the new values).
var trainerFingerprints = map[string][2]string{
	"default-4-actors": {
		"81191c9ba19711f36ad274123d6a75dfc3b7402816cde54df286005b59aa254a",
		"430f13f7fe9a757c34a913c0fc8dc27ea0631c586bbc3574daa8f62323d46686",
	},
	"starved-3-actors": {
		"c2f639563fc422dea14a2bbb31738e51506abd8d77bac2f9248163d9ce8a3311",
		"c28fb4bf20d52105bab9df50bd91b53009744555a855da9fd9667c5685167e86",
	},
	"cluster-2-nodes": {
		"11992a8837026f0550e3506b0b18ffeba43815388ab08b8fdaada3b8dc665c28",
		"a1be7391911b8ea078d68f0e7e5354ac077b3dce0282fb0b49bb3707fcf2994b",
	},
}

func trainerFingerprint(t *testing.T, cfg TrainerConfig) string {
	t.Helper()
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	actor, err := tr.Learner().Agent().ActorBytes()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(actor)
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, s := range tr.Snapshots {
		put(float64(s.Episode), s.ThroughputGbps, s.EnergyJ, s.Efficiency, s.Reward,
			s.CPUPercent, s.FreqGHz, s.LLCPercent, s.DMAMB, s.Batch)
	}
	pushes, transitions := tr.Learner().Stats()
	put(float64(pushes), float64(transitions), float64(tr.Learner().Agent().LearnSteps()))
	return hex.EncodeToString(h.Sum(nil))
}

func TestTrainerFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64: other ports use different math and NN kernels")
	}
	agentCfg := func(seed int64, batch int) ddpg.Config {
		c := ddpg.DefaultConfig(0, 0)
		c.Hidden = []int{24, 24}
		c.BatchSize = batch
		c.Seed = seed
		return c
	}
	// The default single-node configuration every figure trains with.
	def := DefaultTrainerConfig(600)
	def.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	def.AgentConfig = agentCfg(7, 16)

	// Warm-up ends long before the replay holds one batch, so the first
	// post-warm-up LearnStep calls are no-ops: round-robin counts
	// attempts where the concurrent pipeline counts completed updates,
	// and a merge that confuses the two moves this hash.
	starved := DefaultTrainerConfig(300)
	starved.Actors = 3
	starved.WarmupSteps = 8
	starved.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	starved.AgentConfig = agentCfg(11, 48)

	// Two nodes, three chains, the DRL placement head active.
	clustered := DefaultTrainerConfig(240)
	clustered.Actors = 2
	clustered.StepperFactory = func(actorID int) (env.Stepper, error) {
		chains, hops := env.StandardClusterChains(3)
		return env.NewCluster(env.ClusterConfig{
			Topology:        cluster.Homogeneous(2),
			Chains:          chains,
			Hops:            hops,
			LatencyBudgetNs: 1e6,
			Bounds:          perfmodel.DefaultBounds(),
			SLA:             sla.NewEnergyEfficiency(),
			LoadJitter:      0.05,
			Seed:            int64(2000 + actorID),
		})
	}
	clustered.AgentConfig = agentCfg(13, 16)

	for _, c := range []struct {
		name string
		cfg  TrainerConfig
	}{
		{"default-4-actors", def},
		{"starved-3-actors", starved},
		{"cluster-2-nodes", clustered},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := trainerFingerprint(t, c.cfg)
			t.Logf("fingerprint %s", got)
			if want := trainerFingerprints[c.name]; got != want[0] && got != want[1] {
				t.Errorf("trainer fingerprint %s, recorded %s (AVX2) / %s (pure Go)", got, want[0], want[1])
			}
		})
	}
}
