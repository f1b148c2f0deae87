package env

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"greennfv/internal/perfmodel"
)

// Env is the 1-node, 1-chain view over ClusterEnv. These are the
// SHA-256 of a whole episode — the float bits of every observation,
// reward, info field, knob and offered-traffic value over 200 StepInto
// steps and 50 SetKnobs steps — recorded from the stand-alone Env
// implementation that existed before the two environments were merged
// (ecaead5). They replace the old Env-vs-ClusterEnv parity test: a
// change to the decode, the load process, the evaluation or the
// observation that moves any bit of a single-node episode moves these.
// A deliberate change to the model re-records them
// (go test -run TestEnvEpisodeFingerprint -v prints the new values).
// They were recorded on a CPU whose math.Exp takes its FMA branch
// (amd64 with AVX and FMA): the load process and the power and DMA
// models call it, so on a CPU without FMA they can move with no change
// to the code.
var episodeFingerprints = map[string]string{
	"standard":  "7a388dc3fcab52ebc39c908e55a55dc9551056b62c4d9307a462f27833a3a0c4",
	"heavy":     "977d8119824d81c4906cde3df82ad12088514a580d97909d4c331da03855f911",
	"light":     "cf70e3e1cd928f24fa41b6465bfd0ce9d08d0606f2dfbc7450c96e27a5ff0089",
	"busy-poll": "b5a3f999e1aa3a677749aab6649dd87b590f5e699b420e5b47e2ddca30c6ae4f",
	"frozen":    "f9172ed5284b852b3ea5d29715151b6b101b93b8f683efd9b49be3213a3758cf",
}

func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashEpisodeState(h hash.Hash, e *Env, obs []float64, reward float64, info perfmodel.Result) {
	hashFloats(h, obs...)
	hashFloats(h, reward, info.ThroughputGbps, info.EnergyJoules, info.CPUPercent, info.PowerWatts, info.Efficiency)
	for _, k := range e.Knobs() {
		hashFloats(h, k.CPUShare, k.FreqGHz, k.LLCFraction, float64(k.DMABytes), float64(k.Batch))
	}
	tr := e.LastTraffic()
	hashFloats(h, tr.OfferedPPS, float64(tr.FrameBytes), tr.Burstiness)
}

func episodeFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	obs := make([]float64, e.StateDim())
	e.ResetInto(cfg.Seed+1, obs)
	hashEpisodeState(h, e, obs, 0, e.Last())

	rng := rand.New(rand.NewSource(23))
	action := make([]float64, e.ActionDim())
	for step := 0; step < 200; step++ {
		for i := range action {
			// Slightly wider than [-1,1] so the decode's clamp runs.
			action[i] = 2.2*rng.Float64() - 1.1
		}
		r, info, err := e.StepInto(action, obs)
		if err != nil {
			t.Fatal(err)
		}
		hashEpisodeState(h, e, obs, r, info)
	}
	b := e.Bounds()
	ks := make([]perfmodel.NFKnobs, e.NumNFs())
	for step := 0; step < 50; step++ {
		for i := range ks {
			// Past both ends of every range so Bounds.Clamp runs.
			ks[i] = perfmodel.NFKnobs{
				CPUShare:    b.ShareMax * 1.2 * rng.Float64(),
				FreqGHz:     b.FreqMax * 1.2 * rng.Float64(),
				LLCFraction: 1.2 * rng.Float64(),
				DMABytes:    int64(float64(b.DMAMax) * 1.2 * rng.Float64()),
				Batch:       int(float64(b.BatchMax) * 1.2 * rng.Float64()),
			}
		}
		res, err := e.SetKnobs(ks)
		if err != nil {
			t.Fatal(err)
		}
		e.ObserveInto(obs)
		hashEpisodeState(h, e, obs, 0, res)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEnvEpisodeFingerprint holds five single-node episodes to
// episodeFingerprints (see there).
func TestEnvEpisodeFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64: other ports use different math.Exp/Log kernels")
	}
	base := func(chain perfmodel.ChainSpec) Config {
		return Config{
			Model:      perfmodel.Default(),
			Chain:      chain,
			Bounds:     perfmodel.DefaultBounds(),
			SLA:        testSLA(),
			Flows:      StandardWorkload(),
			LoadJitter: 0.1,
			Seed:       17,
		}
	}
	busy := base(perfmodel.StandardChain())
	busy.Options = perfmodel.EvalOptions{BusyPoll: true, NoSleep: true}
	frozen := base(perfmodel.StandardChain())
	frozen.FrozenKnobs = [KnobsPerNF]bool{false, true, true, false, true}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"standard", base(perfmodel.StandardChain())},
		{"heavy", base(perfmodel.HeavyChain())},
		{"light", base(perfmodel.LightChain())},
		{"busy-poll", busy},
		{"frozen", frozen},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := episodeFingerprint(t, c.cfg)
			t.Logf("fingerprint %s", got)
			if got != episodeFingerprints[c.name] {
				t.Errorf("episode fingerprint %s, recorded %s", got, episodeFingerprints[c.name])
			}
		})
	}
}
