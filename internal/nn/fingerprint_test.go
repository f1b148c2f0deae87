package nn_test

import (
	"crypto/sha256"
	"encoding/hex"
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
const (
	learnFingerprintAVX2 = "981d18d8fe483b4b2a37d35d7fe28d0b2b2984d51443e07d71bfb4abfc6839b0"
	learnFingerprintGo   = "a6dac5e26fe1ebaf070412938c86fe521ee4b46b35d33e725f2be7130323bd10"
)

func learnFingerprint(t *testing.T) string {
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
	blob, err := a.StateBytes(false)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func TestLearnFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64: other compilers may fuse the pure-Go loops")
	}
	for _, mode := range []struct {
		name string
		simd bool
		want string
	}{
		{"avx2", true, learnFingerprintAVX2},
		{"go", false, learnFingerprintGo},
	} {
		t.Run(mode.name, func(t *testing.T) {
			if mode.simd && !nn.SIMDSelected() {
				t.Skip("AVX2+FMA kernels not selected on this CPU")
			}
			nn.SetSIMD(t, mode.simd)
			got := learnFingerprint(t)
			t.Logf("fingerprint %s", got)
			if got != mode.want {
				t.Errorf("learn fingerprint %s, recorded %s", got, mode.want)
			}
		})
	}
}
