package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"greennfv/internal/nn"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
)

// The learn step is the composition the byte-diffed figures rest on:
// four networks through the batch passes, Adam and the soft update,
// step after step. These are the SHA-256 of the agent's full state
// (all four networks' parameters, the Adam moments, the RNG position)
// after learnFingerprint's 200 Learn + 100 LearnBatch steps, recorded
// from the per-dot-product kernels this package had before the layer
// kernels (dot4asm/axpyasm one call per row and column; 0f3a061)
// — with the AVX2+FMA kernels, and with the pure-Go fallback. A kernel
// change that moves either value has changed the arithmetic; a change
// to ddpg's defaults or update rule moves both and re-records them
// (go test -run TestLearnFingerprint -v prints the new values).
//
// The F32 pair is learnFingerprintF32, recorded at a0c2e75 from the
// separate float32 engine before it became the second instantiation
// of the generic one.
//
// All four were recorded on a CPU whose math.Exp takes its FMA branch
// (amd64 with AVX and FMA). The pure-Go Tanh leaf is math.Tanh, which
// calls math.Exp, so on a CPU without FMA the "go" values can move with
// no change to the code.
//
// All four hash the checkpoint's bytes, so a change of its encoding
// alone moves them: they were re-recorded when the training state left
// gob for the fixed layout, after every field they cover — the four
// frames, both optimizers' step counts and moments at both precisions,
// the noise, sigma, RNG position and LearnSteps, and the extra vectors
// — was dumped at 5acf634 and on the new layout and the four dumps
// compared byte-identical.
//
// All four were re-recorded when LearnBatch and the float32 learner
// left the fused update (one 2n-row critic pass, dQ/da from the
// pre-update critic) for the one update body Learn runs: the state
// after the 200 Learn steps hashed equal before and after that change
// on both kernel sets, and only the LearnBatch steps and the f32 runs
// moved.
const (
	learnFingerprintAVX2 = "63703bad6cc6c307e4e5ea18a3f8c036225d9061fa9f65b116fc88bab7f8c285"
	learnFingerprintGo   = "ac2ee793c38292d8af21967bef9c2c07368a5f1dc77162d1ef491826deeb0f69"

	learnFingerprintF32AVX2 = "47863a3d1f6cfc9e52be483c1f60a9134c61b72fe6ddbcafcf69205102b206c4"
	learnFingerprintF32Go   = "7eee3abad6c1149922f084c8d0318f3c2c3e1dcb114f41b9aefd0a86822fdfac"
)

// fingerprintAgent builds the agent both fingerprints train — the
// paper environment's shapes on a seeded 256-transition replay — and
// returns the generator that filled it, which goes on to drive the
// external sampling.
func fingerprintAgent(t *testing.T) (*ddpg.Agent, ddpg.Config, *rand.Rand) {
	t.Helper()
	const stateDim, actionDim = 22, 5 // the paper environment's shapes
	cfg := ddpg.DefaultConfig(stateDim, actionDim)
	cfg.Seed = 7
	cfg.BufferCap = 1 << 10
	a, err := ddpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	for i := 0; i < 256; i++ {
		a.Observe(replay.Transition{
			State: vec(stateDim), Action: vec(actionDim), Reward: rng.Float64(),
			NextState: vec(stateDim), Done: i%17 == 0,
		})
	}
	return a, cfg, rng
}

func stateHash(t *testing.T, a *ddpg.Agent, extra ...[]float64) string {
	t.Helper()
	blob, err := a.StateBytes(false)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(blob)
	for _, vs := range extra {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func learnFingerprint(t *testing.T) string {
	t.Helper()
	a, cfg, rng := fingerprintAgent(t)
	for i := 0; i < 200; i++ {
		a.Learn()
	}
	var batch []replay.Transition
	var idx []int
	var w []float64
	for i := 0; i < 100; i++ {
		batch, idx, w = a.SampleReplayInto(rng, cfg.BatchSize, batch[:0], idx[:0], w[:0])
		a.LearnBatch(batch, idx, w)
	}
	return stateHash(t, a)
}

// learnFingerprintF32 is the single-precision run: 200 LearnBatch
// steps under SetFloat32, flushed so the blob carries the trained
// weights beside the f32 Adam moments, then one ActBatch and one
// TDErrorBatch window under SetActFloat32 (11 rows: two 4-row groups
// and three remainder rows), hashed by their float bits.
func learnFingerprintF32(t *testing.T) string {
	t.Helper()
	a, cfg, rng := fingerprintAgent(t)
	a.SetFloat32(true)
	var batch []replay.Transition
	var idx []int
	var w []float64
	for i := 0; i < 200; i++ {
		batch, idx, w = a.SampleReplayInto(rng, cfg.BatchSize, batch[:0], idx[:0], w[:0])
		a.LearnBatch(batch, idx, w)
	}
	a.SetFloat32(false)

	a.SetActFloat32(true)
	const window = 11
	batch, _, _ = a.SampleReplayInto(rng, window, batch[:0], idx[:0], w[:0])
	states := make([]float64, 0, window*cfg.StateDim)
	for _, tr := range batch {
		states = append(states, tr.State...)
	}
	actions := make([]float64, window*cfg.ActionDim)
	if err := a.ActBatch(states, window, nil, actions); err != nil {
		t.Fatal(err)
	}
	return stateHash(t, a, actions, a.TDErrorBatch(batch, nil))
}

// TestLearnFingerprint holds the learn step to the four recorded hashes
// above, each on its own kernel set.
func TestLearnFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64: other compilers may fuse the pure-Go loops")
	}
	for _, mode := range []struct {
		name string
		simd bool
		run  func(*testing.T) string
		want string
	}{
		{"avx2", true, learnFingerprint, learnFingerprintAVX2},
		{"go", false, learnFingerprint, learnFingerprintGo},
		{"f32-avx2", true, learnFingerprintF32, learnFingerprintF32AVX2},
		{"f32-go", false, learnFingerprintF32, learnFingerprintF32Go},
	} {
		t.Run(mode.name, func(t *testing.T) {
			if mode.simd && nn.KernelSet() == "go" {
				t.Skip("AVX2+FMA kernels not selected on this CPU")
			}
			nn.SetSIMD(t, mode.simd)
			got := mode.run(t)
			t.Logf("fingerprint %s", got)
			if got != mode.want {
				t.Errorf("learn fingerprint %s, recorded %s", got, mode.want)
			}
		})
	}
}
