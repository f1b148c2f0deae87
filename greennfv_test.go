package greennfv

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greennfv/internal/perfmodel"
)

func TestSLAConstructors(t *testing.T) {
	if _, err := MaxThroughputSLA(0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := MinEnergySLA(-1); err == nil {
		t.Error("negative floor accepted")
	}
	s, err := MaxThroughputSLA(2000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Describe(), "2000") {
		t.Errorf("describe = %q", s.Describe())
	}
	if EfficiencySLA().Describe() == "" {
		t.Error("empty EE description")
	}
}

// TestNewSystemValidation: NewSystem refuses a configuration no node
// can build from — an unknown chain, a bad flow, a load jitter outside
// [0,1) — so that Train, Measure and WriteNodeSpec never see one.
func TestNewSystemValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chain = "bogus"
	if _, err := NewSystem(cfg); err == nil {
		t.Error("bad preset accepted")
	}
	cfg = DefaultConfig()
	cfg.Flows = []Flow{{PPS: -1, FrameBytes: 64}}
	if _, err := NewSystem(cfg); err == nil {
		t.Error("bad flow accepted")
	}
	for _, jitter := range []float64{1, -0.1, 5, math.NaN()} {
		cfg = DefaultConfig()
		cfg.LoadJitter = jitter
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("load jitter %v accepted", jitter)
		}
	}
	for _, preset := range []ChainPreset{StandardChain, HeavyChain, LightChain, ""} {
		cfg = DefaultConfig()
		cfg.Chain = preset
		if _, err := NewSystem(cfg); err != nil {
			t.Errorf("preset %q: %v", preset, err)
		}
	}
}

// TestWriteNodeSpecBytes pins WriteNodeSpec's exact output — the file
// greennfvd and greennfv-agent read — for the default configuration, a
// heavy chain with its own flows and a configuration with no chain
// set, each under all three SLAs, in testdata/nodespec.golden.
func TestWriteNodeSpecBytes(t *testing.T) {
	maxTput, err := MaxThroughputSLA(2000)
	if err != nil {
		t.Fatal(err)
	}
	minEnergy, err := MinEnergySLA(7.5)
	if err != nil {
		t.Fatal(err)
	}
	heavy := Config{
		Chain:      HeavyChain,
		Flows:      []Flow{{PPS: 1.2e6, FrameBytes: 512, Burstiness: 2}, {PPS: 250e3, FrameBytes: 64}},
		LoadJitter: 0.1,
		Seed:       7,
	}
	var got bytes.Buffer
	for _, cfg := range []Config{DefaultConfig(), heavy, {LoadJitter: 0.05, Seed: 3}} {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, agreement := range []SLA{EfficiencySLA(), maxTput, minEnergy} {
			if err := sys.WriteNodeSpec(agreement, &got); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "nodespec.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("WriteNodeSpec wrote\n%s\nwant\n%s", got.Bytes(), want)
	}
}

func TestTrainMeasureRoundTrip(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Train(EfficiencySLA(), TrainOptions{}); err == nil {
		t.Error("zero steps accepted")
	}
	policy, err := sys.Train(EfficiencySLA(), TrainOptions{Steps: 300, Actors: 2})
	if err != nil {
		t.Fatal(err)
	}
	eps, tput, energy, eff := policy.TrainingCurve()
	if len(eps) == 0 || len(tput) != len(eps) || len(energy) != len(eps) || len(eff) != len(eps) {
		t.Fatalf("curve lengths %d/%d/%d/%d", len(eps), len(tput), len(energy), len(eff))
	}
	m, err := sys.Measure(policy)
	if err != nil {
		t.Fatal(err)
	}
	if m.ThroughputGbps <= 0 || m.EnergyJ <= 0 || m.EfficiencyGbpsPerKJ <= 0 {
		t.Errorf("measurement %+v", m)
	}
	if _, err := sys.Measure(nil); err == nil {
		t.Error("nil policy accepted")
	}
}

// TestMeasureIsIdempotent: every Measure deploys the policy on a fresh
// environment from that environment's own reset, so repeated calls on
// one policy agree to the bit. The controller once carried the last
// observation of the previous environment into the next one.
func TestMeasureIsIdempotent(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	policy, err := sys.Train(EfficiencySLA(), TrainOptions{Steps: 400, Actors: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Measure(policy)
	if err != nil {
		t.Fatal(err)
	}
	for call := 2; call <= 3; call++ {
		m, err := sys.Measure(policy)
		if err != nil {
			t.Fatal(err)
		}
		if m != first {
			t.Errorf("Measure call %d = %+v, first call %+v", call, m, first)
		}
	}
}

func TestMeasureBaselines(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.MeasureBaseline(Baseline)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := sys.MeasureBaseline(Heuristic)
	if err != nil {
		t.Fatal(err)
	}
	eep, err := sys.MeasureBaseline(EEPstate)
	if err != nil {
		t.Fatal(err)
	}
	if heur.ThroughputGbps <= base.ThroughputGbps {
		t.Errorf("heuristic %.2f not above baseline %.2f", heur.ThroughputGbps, base.ThroughputGbps)
	}
	if eep.EnergyJ >= base.EnergyJ {
		t.Errorf("EE-Pstate energy %.0f not below baseline %.0f", eep.EnergyJ, base.EnergyJ)
	}
	if _, err := sys.MeasureBaseline("nope"); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestCustomWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flows = []Flow{
		{PPS: 1e6, FrameBytes: 256, Burstiness: 2},
		{PPS: 500e3, FrameBytes: 1024, Burstiness: 1},
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.MeasureBaseline(Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if m.ThroughputGbps <= 0 {
		t.Error("custom workload produced no throughput")
	}
}

func TestPolicySaveLoadRoundTrip(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	policy, err := sys.Train(EfficiencySLA(), TrainOptions{Steps: 250, Actors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := policy.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty checkpoint")
	}
	foreign := bytes.Clone(buf.Bytes())
	loaded, err := sys.LoadPolicy(EfficiencySLA(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := sys.Measure(policy)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sys.Measure(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ThroughputGbps != m2.ThroughputGbps || m1.EnergyJ != m2.EnergyJ {
		t.Errorf("loaded policy differs: %+v vs %+v", m1, m2)
	}
	// A loaded policy has no training curve.
	eps, _, _, _ := loaded.TrainingCurve()
	if len(eps) != 0 {
		t.Error("loaded policy reports a training curve")
	}
	// Corrupt checkpoints are rejected, and so is a frame under another
	// magic, with nn's refusal.
	if _, err := sys.LoadPolicy(EfficiencySLA(), strings.NewReader("garbage")); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	foreign[7]++
	if p, err := sys.LoadPolicy(EfficiencySLA(), bytes.NewReader(foreign)); p != nil || err == nil || !strings.Contains(err.Error(), "not a parameter frame") {
		t.Errorf("a policy file under another magic loaded as %v, %v", p, err)
	}
	// Saving a nil policy errors.
	var nilPolicy *Policy
	if err := nilPolicy.Save(&buf); err == nil {
		t.Error("nil policy save accepted")
	}
}

func TestTrainCheckpointResume(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "train.ckpt")
	opts := TrainOptions{Steps: 200, Actors: 2, Checkpoint: path, CheckpointReplay: true}
	if _, err := sys.Train(EfficiencySLA(), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("training wrote no checkpoint: %v", err)
	}
	// An identically configured run resumes from the completed
	// checkpoint (and, being already at budget, finishes immediately
	// with a usable policy).
	opts.Resume = path
	policy, err := sys.Train(EfficiencySLA(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Measure(policy); err != nil {
		t.Fatal(err)
	}
	// A bogus resume path must fail loudly, not train from scratch.
	opts.Resume = filepath.Join(t.TempDir(), "missing.ckpt")
	if _, err := sys.Train(EfficiencySLA(), opts); err == nil {
		t.Error("missing resume checkpoint accepted")
	}
}

func TestPolicyCheckpointServeOnly(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	policy, err := sys.Train(EfficiencySLA(), TrainOptions{Steps: 250, Actors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := policy.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Serve-only reload reproduces the trained policy's measurement.
	loaded, err := sys.LoadPolicyCheckpoint(EfficiencySLA(), bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := sys.Measure(policy)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sys.Measure(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ThroughputGbps != m2.ThroughputGbps || m1.EnergyJ != m2.EnergyJ {
		t.Errorf("checkpoint-loaded policy differs: %+v vs %+v", m1, m2)
	}

	// Corrupt checkpoints are rejected.
	if _, err := sys.LoadPolicyCheckpoint(EfficiencySLA(), strings.NewReader("garbage")); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	// A checkpoint trained for another chain (different dimensions) is
	// rejected instead of mis-deployed.
	lightCfg := DefaultConfig()
	lightCfg.Chain = LightChain
	lightSys, err := NewSystem(lightCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lightSys.LoadPolicyCheckpoint(EfficiencySLA(), bytes.NewReader(blob)); err == nil {
		t.Error("dimension-mismatched checkpoint accepted")
	}

	// The node spec round-trips and rebuilds a matching environment.
	var spec bytes.Buffer
	if err := sys.WriteNodeSpec(EfficiencySLA(), &spec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spec.String(), "\"env_seed\"") {
		t.Errorf("node spec JSON missing fields: %s", spec.String())
	}
}

// preFramePolicy is a policy file as Policy.Save wrote it before the
// parameter frame: the gob encoding of the actor network's layer sizes,
// activations (ReLU hidden, Tanh out), weights and biases — here of an
// all-zero network of the system's default shape. Nothing writes that
// form any more; it is built here so that its refusal stays pinned.
func preFramePolicy(t *testing.T, sys *System, agreement SLA) []byte {
	t.Helper()
	probe, err := sys.factory(agreement.spec)(sys.spec.EnvSeed, perfmodel.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Sizes []int
		Acts  []int
		W, B  [][]float64
	}
	st.Sizes = []int{probe.StateDim(), 48, 48, probe.ActionDim()}
	st.Acts = []int{1, 1, 2}
	for i := 1; i < len(st.Sizes); i++ {
		st.W = append(st.W, make([]float64, st.Sizes[i-1]*st.Sizes[i]))
		st.B = append(st.B, make([]float64, st.Sizes[i]))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadPolicyRefusesPreFrameFile: LoadPolicy reads parameter frames
// only. A policy file from before the frame gets nn's refusal of
// anything that is not one, not a policy.
func TestLoadPolicyRefusesPreFrameFile(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.LoadPolicy(EfficiencySLA(), bytes.NewReader(preFramePolicy(t, sys, EfficiencySLA())))
	if p != nil || err == nil || !strings.Contains(err.Error(), "not a parameter frame") {
		t.Fatalf("LoadPolicy of a pre-frame gob file returned %v, %v; want nn's not-a-parameter-frame refusal", p, err)
	}
}
