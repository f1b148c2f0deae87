package apex

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"greennfv/internal/atomicio"

	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// checkpointTrainerConfig builds a small deterministic round-robin
// trainer configuration for checkpoint tests.
func checkpointTrainerConfig(t *testing.T, totalSteps int) TrainerConfig {
	t.Helper()
	cfg := DefaultTrainerConfig(totalSteps)
	cfg.Actors = 2
	cfg.WarmupSteps = 16
	cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Hidden = []int{12, 12}
	cfg.AgentConfig.BatchSize = 8
	cfg.AgentConfig.Seed = 5
	cfg.CheckpointReplay = true
	return cfg
}

// TestWriteReadCheckpoint pins the checkpoint file format byte for byte
// and its round-trip and corruption detection: the file is the magic,
// the big-endian payload length and CRC32, the six little-endian
// counters and the agent's bytes, and bad magic, truncation and bit
// flips must all be rejected before any state is decoded.
func TestWriteReadCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	want := &TrainerCheckpoint{
		Agent: []byte{1, 2, 3, 4, 5}, Version: 7, Updates: 42,
		Pushes: 9, Received: 360, Steps: 100, TotalSteps: 500,
	}
	if err := WriteCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Agent, want.Agent) || got.Version != want.Version ||
		got.Updates != want.Updates || got.Received != want.Received ||
		got.Steps != want.Steps || got.TotalSteps != want.TotalSteps {
		t.Fatalf("round-trip mismatch: %+v != %+v", got, want)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	for _, v := range []int64{7, 42, 9, 360, 100, 500} {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(v))
	}
	payload = append(payload, want.Agent...)
	file := binary.BigEndian.AppendUint64([]byte(checkpointMagic), uint64(len(payload)))
	file = append(binary.BigEndian.AppendUint32(file, crc32.ChecksumIEEE(payload)), payload...)
	if !bytes.Equal(raw, file) {
		t.Fatalf("checkpoint file is\n%x\nwant\n%x", raw, file)
	}
	// Bit flip inside the payload: CRC must catch it.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0x01
	bad := filepath.Join(t.TempDir(), "flipped")
	os.WriteFile(bad, flipped, 0o644)
	if _, err := ReadCheckpoint(bad); err == nil {
		t.Error("bit-flipped checkpoint read without error")
	}
	// Truncation.
	os.WriteFile(bad, raw[:len(raw)-3], 0o644)
	if _, err := ReadCheckpoint(bad); err == nil {
		t.Error("truncated checkpoint read without error")
	}
	// Foreign file.
	os.WriteFile(bad, []byte("not a checkpoint at all........"), 0o644)
	if _, err := ReadCheckpoint(bad); err == nil {
		t.Error("bad-magic file read without error")
	}
}

// TestTrainerCheckpointResume is the checkpoint round-trip gate at the
// trainer level: train, checkpoint, restore into a freshly built
// trainer, and require bit-identical weights plus next-update parity
// (both learners step once more and must remain bit-identical — the
// optimizer moments, RNG stream and replay contents all survived). It
// runs in the reference loop and in the concurrent pipeline: a resumed
// trainer spends what is left of the budget in either, which for a
// completed checkpoint is nothing.
func TestTrainerCheckpointResume(t *testing.T) {
	for _, mode := range []struct {
		name     string
		parallel bool
	}{{"round-robin", false}, {"parallel", true}} {
		t.Run(mode.name, func(t *testing.T) {
			const total = 80
			config := func() TrainerConfig {
				cfg := checkpointTrainerConfig(t, total)
				cfg.Parallel = mode.parallel
				return cfg
			}
			tr, err := NewTrainer(config())
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Run(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trainer.ckpt")
			if err := tr.Checkpoint(path); err != nil {
				t.Fatal(err)
			}
			wantBytes, err := tr.Learner().Agent().ActorBytes()
			if err != nil {
				t.Fatal(err)
			}
			wantUpdates := tr.Learner().Agent().LearnSteps()
			_, wantReceived := tr.Learner().Stats()

			tr2, err := NewTrainer(config())
			if err != nil {
				t.Fatal(err)
			}
			if err := tr2.Resume(path); err != nil {
				t.Fatal(err)
			}
			// The checkpoint was taken at steps == TotalSteps, so the
			// resumed run restores state and immediately completes.
			if err := tr2.Run(); err != nil {
				t.Fatal(err)
			}
			if got := tr2.resumedUpdates; got != wantUpdates {
				t.Errorf("ResumedUpdates = %d, want %d", got, wantUpdates)
			}
			gotBytes, err := tr2.Learner().Agent().ActorBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantBytes, gotBytes) {
				t.Fatal("restored trainer weights differ from checkpoint")
			}
			if got := tr2.Learner().Agent().LearnSteps(); got != wantUpdates {
				t.Fatalf("restored learn steps %d, want %d", got, wantUpdates)
			}
			if _, got := tr2.Learner().Stats(); got != wantReceived {
				t.Fatalf("resumed run holds %d transitions, want the restored %d", got, wantReceived)
			}

			// Next-update parity: one more update on each learner from
			// the restored replay must produce bit-identical weights.
			// Sampling reads only the agent's restored RNG, so a striped
			// snapshot promises it as the one-shard one does.
			assertNextUpdates(t, tr, tr2, 1)
		})
	}
}

// assertNextUpdates runs n more updates on both learners and fails
// unless their weights agree bit for bit after every one.
func assertNextUpdates(t *testing.T, want, got *Trainer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		want.Learner().LearnStep(1)
		got.Learner().LearnStep(1)
		a, err := want.Learner().Agent().ActorBytes()
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Learner().Agent().ActorBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("update %d after the restore diverged from the original learner", i+1)
		}
	}
}

// TestResumeAcrossGOMAXPROCS: a replay snapshot restores at its own
// stripe count, whatever the parallelism or the mode of the run that
// resumes it. A Parallel checkpoint written at GOMAXPROCS 4 (four
// stripes) resumes at GOMAXPROCS 2, whose pipeline installs two, and in
// round-robin; a round-robin checkpoint (one stripe) resumes in the
// pipeline. Each resumed learner holds the writer's weights and
// experience, and its next updates are the writer's bit for bit.
func TestResumeAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name                        string
		writeProcs                  int
		writeParallel, readParallel bool
	}{
		{"parallel at 4 into parallel at 2", 4, true, true},
		{"parallel at 4 into round-robin", 4, true, false},
		{"round-robin into parallel at 2", 2, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			const total = 80
			runtime.GOMAXPROCS(c.writeProcs)
			cfg := checkpointTrainerConfig(t, total)
			cfg.Parallel = c.writeParallel
			tr, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Run(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trainer.ckpt")
			if err := tr.Checkpoint(path); err != nil {
				t.Fatal(err)
			}

			runtime.GOMAXPROCS(2)
			cfg = checkpointTrainerConfig(t, total)
			cfg.Parallel = c.readParallel
			tr2, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr2.Resume(path); err != nil {
				t.Fatal(err)
			}
			if err := tr2.Run(); err != nil {
				t.Fatalf("resume: %v", err)
			}
			// The whole training state, the replay's stripes included.
			a, err := tr.Learner().Agent().StateBytes(true)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tr2.Learner().Agent().StateBytes(true)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("the resumed learner's state differs from the writer's")
			}
			assertNextUpdates(t, tr, tr2, 3)
		})
	}
}

// TestResumeRejectsMissingAndMismatched pins Resume error handling: a
// missing file fails at Resume time; a checkpoint from a different
// agent configuration, a well-framed one whose counters no run with
// this budget could have written, or one under another magic fails at
// restore time with an error that names the field or the magic, and
// changes neither the learner nor the file.
func TestResumeRejectsMissingAndMismatched(t *testing.T) {
	cfg := checkpointTrainerConfig(t, 40)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("Resume with a missing checkpoint did not error")
	}

	if err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck")
	if err := tr.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	other := checkpointTrainerConfig(t, 40)
	other.AgentConfig.Hidden = []int{8} // different topology
	tr2, err := NewTrainer(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Resume(path); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Run(); err == nil {
		t.Error("resume into a mismatched agent config did not error")
	}

	good, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := func(corrupt func(*TrainerCheckpoint)) func(string) error {
		return func(path string) error {
			ck := *good
			corrupt(&ck)
			return WriteCheckpoint(path, &ck)
		}
	}
	for field, write := range map[string]func(path string) error{
		"TotalSteps":       corrupted(func(ck *TrainerCheckpoint) { ck.TotalSteps = 41 }),
		"Steps":            corrupted(func(ck *TrainerCheckpoint) { ck.Steps = ck.TotalSteps + 1 }),
		"Version":          corrupted(func(ck *TrainerCheckpoint) { ck.Version = 0 }),
		"Updates":          corrupted(func(ck *TrainerCheckpoint) { ck.Updates++ }),
		"Pushes":           corrupted(func(ck *TrainerCheckpoint) { ck.Pushes = -1 }),
		"Received":         corrupted(func(ck *TrainerCheckpoint) { ck.Received = -360 }),
		`magic "GNFVCKP3"`: func(path string) error { return atomicio.WriteFile(path, "GNFVCKP3", good.counters(), good.Agent) },
	} {
		bad := filepath.Join(t.TempDir(), "bad")
		if err := write(bad); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(bad)
		if err != nil {
			t.Fatal(err)
		}
		tr3, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before, err := tr3.Learner().Agent().StateBytes(true)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr3.Resume(bad); err != nil {
			t.Fatal(err)
		}
		if err := tr3.Run(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("checkpoint with a bad %s: Run returned %v, want an error naming it", field, err)
		}
		// A refused checkpoint loads nothing: before the agent's own
		// LearnSteps was read off the layout, a bad Updates was caught
		// only after the agent was restored.
		if after, _ := tr3.Learner().Agent().StateBytes(true); !bytes.Equal(before, after) {
			t.Errorf("checkpoint with a bad %s changed the learner's agent", field)
		}
		if after, err := os.ReadFile(bad); err != nil || !bytes.Equal(after, file) {
			t.Errorf("checkpoint with a bad %s changed on disk (%v)", field, err)
		}
	}
}

// TestResumeRefusesGobNetworks: a trainer checkpoint as builds wrote it
// before the fixed layout — a GNFVCKP1 frame around the gob encoding of
// the counters and the agent's state, built here since nothing writes
// it any more — is refused when the trainer restores it, with an error
// that quotes the magic it found and the one it wants, and neither the
// learner's agent nor the file changes.
func TestResumeRefusesGobNetworks(t *testing.T) {
	cfg := checkpointTrainerConfig(t, 40)
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, err := tr.Learner().Agent().StateBytes(true)
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Version, Updates  int
		Pushes, Received  int64
		Steps, TotalSteps int
		Agent             []byte
	}
	old.Version, old.TotalSteps, old.Agent = 1, cfg.TotalSteps, before
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(old); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gob.ckpt")
	if err := atomicio.WriteFile(path, "GNFVCKP1", payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Resume(path); err != nil {
		t.Fatal(err)
	}
	says := `magic "GNFVCKP1", want "` + checkpointMagic + `"`
	if err := tr.Run(); err == nil || !strings.Contains(err.Error(), says) {
		t.Fatalf("resuming a gob-era checkpoint: Run returned %v, want an error saying %s", err, says)
	}
	if after, _ := tr.Learner().Agent().StateBytes(true); !bytes.Equal(before, after) {
		t.Error("a refused checkpoint changed the learner's agent")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, file) {
		t.Errorf("a refused checkpoint changed on disk (%v)", err)
	}
}

// FuzzTrainerCheckpoint: a checkpoint file whose frame is intact (magic,
// length and CRC all valid — what the frame cannot catch) but whose
// payload is arbitrary either fails to restore or leaves a trainer whose
// counters agree with each other and whose broadcast an actor can load.
// It never panics. Seeds are f.Add calls: a real checkpoint, with and
// without its replay, and one per counter TrainerCheckpoint.vet refuses.
func FuzzTrainerCheckpoint(f *testing.F) {
	config := func() TrainerConfig {
		cfg := DefaultTrainerConfig(48)
		cfg.Actors = 1
		cfg.WarmupSteps = 8
		cfg.StepperFactory = stepperFactory(sla.NewEnergyEfficiency())
		cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
		cfg.AgentConfig.Hidden = []int{4}
		cfg.AgentConfig.BatchSize = 4
		cfg.AgentConfig.Seed = 5
		return cfg
	}
	tr, err := NewTrainer(config())
	if err != nil {
		f.Fatal(err)
	}
	if err := tr.Run(); err != nil {
		f.Fatal(err)
	}
	seed := func(withReplay bool, corrupt func(*TrainerCheckpoint)) {
		tr.cfg.CheckpointReplay = withReplay
		path := filepath.Join(f.TempDir(), "seed")
		if err := tr.Checkpoint(path); err != nil {
			f.Fatal(err)
		}
		ck, err := ReadCheckpoint(path)
		if err != nil {
			f.Fatal(err)
		}
		corrupt(ck)
		f.Add(append(ck.counters(), ck.Agent...))
	}
	seed(true, func(*TrainerCheckpoint) {})
	seed(false, func(*TrainerCheckpoint) {})
	seed(false, func(ck *TrainerCheckpoint) { ck.TotalSteps++ })
	seed(false, func(ck *TrainerCheckpoint) { ck.Steps = -1 })
	seed(false, func(ck *TrainerCheckpoint) { ck.Version = 0 })
	seed(false, func(ck *TrainerCheckpoint) { ck.Updates-- })
	seed(false, func(ck *TrainerCheckpoint) { ck.Received = -1 })

	f.Fuzz(func(t *testing.T, payload []byte) {
		path := filepath.Join(t.TempDir(), "ck")
		if err := atomicio.WriteFile(path, checkpointMagic, payload); err != nil {
			t.Fatal(err)
		}
		ck, err := ReadCheckpoint(path)
		if err != nil {
			return
		}
		tr, err := NewTrainer(config())
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Resume(path); err != nil {
			t.Fatal(err)
		}
		if err := tr.applyResume(); err != nil {
			return
		}
		l := tr.learner
		if tr.steps != ck.Steps || tr.steps < 0 || tr.steps > tr.cfg.TotalSteps {
			t.Errorf("restored %d steps of %d from a checkpoint recording %d", tr.steps, tr.cfg.TotalSteps, ck.Steps)
		}
		if got := l.agent.LearnSteps(); got != ck.Updates || got != tr.resumedUpdates || got < 0 {
			t.Errorf("agent has run %d updates, checkpoint says %d, trainer resumed %d", got, ck.Updates, tr.resumedUpdates)
		}
		if pushes, received := l.Stats(); pushes < 0 || received < 0 {
			t.Errorf("restored negative experience counters: %d pushes, %d transitions", pushes, received)
		}
		actor := tr.actors[0]
		if err := actor.SyncParams(l); err != nil {
			t.Fatalf("actor cannot load the restored broadcast: %v", err)
		}
		if actor.version != ck.Version || ck.Version < 1 {
			t.Errorf("actor pulled version %d from a checkpoint recording %d", actor.version, ck.Version)
		}
	})
}
