package apex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"greennfv/internal/atomicio"
	"greennfv/internal/rl/ddpg"
)

// Trainer checkpointing: the learner's full training state — the
// agent's checkpoint plus the trainer's progress counters — written
// atomically so a SIGKILL'd learner process restarts mid-budget with
// bit-exact weights. File format: atomicio's framing (magic "GNFVCKP2",
// big-endian payload length and IEEE CRC32; its temp+fsync+rename write
// leaves the previous checkpoint intact if a crash interrupts it, and
// the CRC rejects a torn copy) around six little-endian int64s —
// Version, Updates, Pushes, Received, Steps, TotalSteps — and then the
// agent's checkpoint (ddpg.Agent.SaveState) to the end. A trainer that
// starts a run sweeps any temp file a crashed predecessor left. A file
// under any other magic is refused (atomicio names the tag it found).

// checkpointMagic identifies (and versions) the checkpoint format.
const checkpointMagic = "GNFVCKP2"

// TrainerCheckpoint is everything a restarted trainer needs to resume
// a training run where it stopped.
type TrainerCheckpoint struct {
	// Agent is the agent's checkpoint (ddpg.Agent.SaveState).
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

// payload is ck's file payload.
func (ck *TrainerCheckpoint) payload() []byte {
	// binary.Append fails only on data of no fixed size.
	b, _ := binary.Append(nil, binary.LittleEndian, [6]int64{int64(ck.Version), int64(ck.Updates), ck.Pushes, ck.Received, int64(ck.Steps), int64(ck.TotalSteps)})
	return append(b, ck.Agent...)
}

// WriteCheckpoint atomically writes ck to path: temp file in the same
// directory, fsync, rename (atomicio.WriteFile).
func WriteCheckpoint(path string, ck *TrainerCheckpoint) error {
	if err := atomicio.WriteFile(path, checkpointMagic, ck.payload()); err != nil {
		return fmt.Errorf("apex: checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint reads and validates a checkpoint file: magic, length
// and CRC must all match before the counters are read.
func ReadCheckpoint(path string) (*TrainerCheckpoint, error) {
	payload, err := atomicio.ReadFile(path, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("apex: checkpoint: %w", err)
	}
	var c [6]int64
	n, err := binary.Decode(payload, binary.LittleEndian, &c)
	if err != nil {
		return nil, fmt.Errorf("apex: checkpoint: %d-byte payload, shorter than its counters", len(payload))
	}
	return &TrainerCheckpoint{Agent: payload[n:], Version: int(c[0]), Updates: int(c[1]), Pushes: c[2], Received: c[3],
		Steps: int(c[4]), TotalSteps: int(c[5])}, nil
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
	state, err := ddpg.ReadCheckpoint(ck.Agent)
	if err != nil {
		return err
	}
	if err := ck.vet(t.cfg.TotalSteps, state.LearnSteps()); err != nil {
		return err
	}
	if err := t.learner.restoreCheckpoint(ck, state); err != nil {
		return err
	}
	t.steps = ck.Steps
	t.resumedUpdates = ck.Updates
	return nil
}

// vet refuses, naming the field, a checkpoint whose counters no trainer
// with a budget of totalSteps could have written or that disagree with
// the learnSteps its agent's checkpoint records — all before the agent
// is written, so a refused checkpoint loads nothing.
func (ck *TrainerCheckpoint) vet(totalSteps, learnSteps int) error {
	switch {
	case ck.TotalSteps != totalSteps:
		return fmt.Errorf("apex: checkpoint: TotalSteps %d, this trainer's budget is %d", ck.TotalSteps, totalSteps)
	case ck.Steps < 0 || ck.Steps > ck.TotalSteps:
		return fmt.Errorf("apex: checkpoint: Steps %d outside [0, TotalSteps %d]", ck.Steps, ck.TotalSteps)
	case ck.Version < 1:
		return fmt.Errorf("apex: checkpoint: Version %d, the first broadcast is 1", ck.Version)
	case ck.Updates != learnSteps:
		return fmt.Errorf("apex: checkpoint: Updates %d, but its agent state has run %d", ck.Updates, learnSteps)
	case ck.Pushes < 0:
		return fmt.Errorf("apex: checkpoint: negative Pushes %d", ck.Pushes)
	case ck.Received < 0:
		return fmt.Errorf("apex: checkpoint: negative Received %d", ck.Received)
	}
	return nil
}

// restoreCheckpoint loads a vetted checkpoint into the learner: agent
// state, broadcast version (with its frame re-encoded), and the
// experience counters the pacing rule reads.
func (l *Learner) restoreCheckpoint(ck *TrainerCheckpoint, state *ddpg.Checkpoint) error {
	if err := l.agent.LoadState(state); err != nil {
		return err
	}
	l.mu.Lock()
	l.version = ck.Version
	l.refreshParamCache()
	l.mu.Unlock()
	l.pushes.Store(ck.Pushes)
	l.received.Store(ck.Received)
	return nil
}
