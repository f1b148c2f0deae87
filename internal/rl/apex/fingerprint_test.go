package apex

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// The round-robin loop is the reference path: every recorded figure
// and bench/'s train_rr replica are byte-pinned to it. These are the
// SHA-256 of whole round-robin runs — the bit patterns of the learner's
// policy parameters, every snapshot field, the experience counters and
// the update count — first with the AVX2 kernels nn selects on this
// hardware, then with its pure-Go kernels (the two sum in different
// orders, and this package cannot ask nn which it chose, so a run must
// match one of the pair). They hash the parameters themselves, not a
// serialization of them: the values recorded at PR 16's tree (2712f09)
// hashed ActorBytes, then a gob stream, whose type ids depend on which
// gob users ran earlier in the process. These were recorded at a5d8e5b
// (where those still passed), before the broadcast left gob, replay
// storage became lazy and ReLU moved into assembly. A change that moves
// any bit of a round-robin run moves these; a deliberate one re-records
// them (go test -run TestTrainerFingerprint -v prints the new values).
var trainerFingerprints = map[string][2]string{
	"default-4-actors": {
		"243f57cdcbba4821a2aa0a079790ad0d48a7fc847c018f8b9c4002d8ce876356",
		"d9a96bfaa1af3fe3c5bcee083ea6d27a9610e4c8fb9726890f8f98f659cf4568",
	},
	"starved-3-actors": {
		"d64a42d202ac905cb19f4831761876484032a71c3b300d86fc3c86410c94cff8",
		"6a2fc84f06fa65f750d1cbfbbf535005df4fdb24a86bd4e679beaa51293e502b",
	},
	"cluster-2-nodes": {
		"4febb0ebfe589506c7045ad9835ae3aedbe86f95ff79f689458501c776b0442e",
		"8f10b792c51b69867f044ca8152342dc6673ca55937ea0a471813a6db47279da",
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
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, p := range tr.Learner().Agent().Actor.ParamSlices() {
		put(p...)
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
	clustered.StepperFactory = clusterFactory
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
