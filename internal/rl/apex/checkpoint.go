package apex

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"

	"greennfv/internal/atomicio"
)

// Trainer checkpointing: the learner's full training state — the
// serialized ddpg.Agent (networks, optimizer moments, noise/RNG
// stream, learn counter, optionally the replay buffer) plus the
// trainer-level progress counters — written atomically so a SIGKILL'd
// learner process restarts mid-budget with bit-exact weights.
//
// File format: an 8-byte magic ("GNFVCKP1"), the big-endian uint64
// payload length, the IEEE CRC32 of the payload, then the
// gob-encoded TrainerCheckpoint — the internal/atomicio framing,
// which also does the temp+fsync+rename write so a crash mid-write
// leaves the previous checkpoint intact and the CRC rejects the
// torn-read case of a checkpoint copied off a dying machine. A
// trainer that starts a run sweeps any temp file its crashed
// predecessor left next to the checkpoint path.

// checkpointMagic identifies (and versions) the checkpoint format.
const checkpointMagic = "GNFVCKP1"

// TrainerCheckpoint is everything a restarted trainer needs to resume
// a training run where it stopped.
type TrainerCheckpoint struct {
	// Agent is the ddpg.Agent state blob (ddpg.Agent.SaveState).
	Agent []byte
	// Version is the learner's parameter-broadcast version.
	Version int
	// Updates is the learner's completed update count (its agent's
	// LearnSteps at save time).
	Updates int
	// Pushes and Received are the learner's experience counters; the
	// pacing rule of a resumed run computes its allowance from Received.
	Pushes, Received int64
	// Steps and TotalSteps record trainer progress against its budget.
	Steps, TotalSteps int
}

// WriteCheckpoint atomically writes ck to path: temp file in the same
// directory, fsync, rename (atomicio.WriteFile).
func WriteCheckpoint(path string, ck *TrainerCheckpoint) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return fmt.Errorf("apex: encode checkpoint: %w", err)
	}
	if err := atomicio.WriteFile(path, checkpointMagic, payload.Bytes()); err != nil {
		return fmt.Errorf("apex: checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint reads and validates a checkpoint file: magic, length
// and CRC must all match before the payload is decoded.
func ReadCheckpoint(path string) (*TrainerCheckpoint, error) {
	payload, err := atomicio.ReadFile(path, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("apex: checkpoint: %w", err)
	}
	var ck TrainerCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("apex: decode checkpoint: %w", err)
	}
	return &ck, nil
}

// Checkpoint writes the trainer's current training state to path
// (atomically; see WriteCheckpoint). Replay contents are included
// when cfg.CheckpointReplay is set. Call it from the goroutine
// driving learner updates (the pipeline checkpoints between updates;
// a quiesced trainer can checkpoint any time) — concurrent pushes and
// sampling are safe, concurrent updates are not.
func (t *Trainer) Checkpoint(path string) error {
	l := t.learner
	// Counter order matters: capture Received before the replay
	// snapshot so the restored pacing allowance never exceeds the
	// experience actually present in the restored buffer.
	pushes, received := l.pushes.Load(), l.received.Load()
	l.mu.Lock()
	version := l.version
	l.mu.Unlock()
	blob, err := l.agent.StateBytes(t.cfg.CheckpointReplay)
	if err != nil {
		return err
	}
	return WriteCheckpoint(path, &TrainerCheckpoint{
		Agent:      blob,
		Version:    version,
		Updates:    l.agent.LearnSteps(),
		Pushes:     pushes,
		Received:   received,
		Steps:      t.steps,
		TotalSteps: t.cfg.TotalSteps,
	})
}

// Resume arranges for the next Run to restore training state from the
// checkpoint at path before stepping: the learner continues mid-budget
// with bit-exact weights, optimizer moments and (if checkpointed)
// replay contents. The trainer must be configured identically to the
// one that wrote the checkpoint — the agent configuration and the step
// budget are verified strictly on restore, and so are the checkpoint's
// counters (TrainerCheckpoint.vet): the CRC only catches a torn file,
// not a well-framed one that says nonsense. Call before Run.
func (t *Trainer) Resume(path string) error {
	if path == "" {
		return errors.New("apex: empty resume path")
	}
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("apex: resume: %w", err)
	}
	t.resumePath = path
	return nil
}

// applyResume restores the recorded checkpoint into the learner. The
// run modes call it once their replay is installed; a replay snapshot
// replaces that buffer with one of the snapshot's stripe count.
func (t *Trainer) applyResume() error {
	if t.resumePath == "" {
		return nil
	}
	ck, err := ReadCheckpoint(t.resumePath)
	if err != nil {
		return err
	}
	if err := ck.vet(t.cfg.TotalSteps); err != nil {
		return err
	}
	if err := t.learner.restoreCheckpoint(ck); err != nil {
		return err
	}
	t.steps = ck.Steps
	t.resumedUpdates = ck.Updates
	return nil
}

// vet refuses a checkpoint whose counters no trainer with a budget of
// totalSteps could have written, naming the field — everything that can
// be checked before the agent blob is decoded, so a refused checkpoint
// loads nothing.
func (ck *TrainerCheckpoint) vet(totalSteps int) error {
	switch {
	case ck.TotalSteps != totalSteps:
		return fmt.Errorf("apex: checkpoint: TotalSteps %d, this trainer's budget is %d", ck.TotalSteps, totalSteps)
	case ck.Steps < 0 || ck.Steps > ck.TotalSteps:
		return fmt.Errorf("apex: checkpoint: Steps %d outside [0, TotalSteps %d]", ck.Steps, ck.TotalSteps)
	case ck.Version < 1:
		return fmt.Errorf("apex: checkpoint: Version %d, the first broadcast is 1", ck.Version)
	case ck.Updates < 0:
		return fmt.Errorf("apex: checkpoint: negative Updates %d", ck.Updates)
	case ck.Pushes < 0:
		return fmt.Errorf("apex: checkpoint: negative Pushes %d", ck.Pushes)
	case ck.Received < 0:
		return fmt.Errorf("apex: checkpoint: negative Received %d", ck.Received)
	}
	return nil
}

// restoreCheckpoint loads a vetted checkpoint into the learner: agent
// state (whose own update count must be the one the checkpoint
// records), broadcast version (with a fresh parameter cache), and the
// experience counters the pacing rule reads.
func (l *Learner) restoreCheckpoint(ck *TrainerCheckpoint) error {
	if err := l.agent.LoadStateBytes(ck.Agent); err != nil {
		return err
	}
	if got := l.agent.LearnSteps(); got != ck.Updates {
		return fmt.Errorf("apex: checkpoint: Updates %d, but its agent state has run %d", ck.Updates, got)
	}
	l.mu.Lock()
	l.version = ck.Version
	err := l.refreshParamCache()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.pushes.Store(ck.Pushes)
	l.received.Store(ck.Received)
	return nil
}
