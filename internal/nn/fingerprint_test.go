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
// kernels (dot4asm/axpyasm one call per row and column; PR 13's tree)
// — with the AVX2+FMA kernels, and with the pure-Go fallback. A kernel
// change that moves either value has changed the arithmetic; a change
// to ddpg's defaults or update rule moves both and re-records them
// (go test -run TestLearnFingerprint -v prints the new values).
//
// The F32 pair is learnFingerprintF32, recorded at PR 15's tree from
// the separate float32 engine before it became the second
// instantiation of the generic one.
//
// All four hash the checkpoint's bytes, so a change of its encoding
// alone moves them: they were re-recorded when the training state left
// gob for the fixed layout, after every field they cover — the four
// frames, both optimizers' step counts and moments at both precisions,
// the noise, sigma, RNG position and LearnSteps, and the extra vectors
// — was dumped at 5acf634 and on the new layout and the four dumps
// compared byte-identical.
const (
	learnFingerprintAVX2 = "1bb4fd1c523534f15af2c1db0f4fd34f1bf62aca9f04637defa21148b69aa12b"
	learnFingerprintGo   = "fb242c71b5da64735a10fc0a4a25a4104f23a5da86f07a8e4eeac6b16700bba8"

	learnFingerprintF32AVX2 = "937d5be24a352a83a94bef5f8fc48ae9aeebc01a5f672888cb43a459e98bb52f"
	learnFingerprintF32Go   = "4f89e731be7920de9118a602211f6405da991b9447c80b87b6aede0b11777611"
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
