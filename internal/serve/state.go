package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"

	"greennfv/internal/atomicio"
	"greennfv/internal/perfmodel"
)

// stateMagic identifies (and versions) the controller state snapshot;
// journalMagic the journal of config changes that extends it.
const (
	stateMagic   = "GNFVSRV1"
	journalMagic = "GNFVSRJ1"
)

// journalPath names the journal that extends the snapshot at
// statePath.
func journalPath(statePath string) string { return statePath + ".journal" }

// ControllerState is what a controller must remember across a crash:
// the policy it is serving (hot reloads included, so a restart does
// not silently revert to the boot checkpoint) and each node's
// last-known-good configuration, the middle rung of the degradation
// ladder.
type ControllerState struct {
	// PolicyBlob is the serving policy's policy-only form: its
	// checkpoint's policy section (Config and actor frame, ~31 KB at
	// the default topology) without the training state behind it,
	// which ddpg.LoadPolicy reads back. PolicyVersion counts swaps
	// (boot = 1).
	PolicyBlob    []byte
	PolicyVersion int
	// LastGood maps node ID to the last guardrail-approved config the
	// controller pushed to it.
	LastGood map[string][]perfmodel.NFKnobs
}

// errSnapshotDue is Append's refusal: the store has no snapshot to
// extend, or the journal has outgrown it. Not a failure — the caller
// writes a snapshot with Save instead.
var errSnapshotDue = errors.New("serve: state snapshot due")

// stateStore is the controller's persistence seam: the file-backed
// StateStore in production, a stub in the persistence-failure tests.
type stateStore interface {
	Save(*ControllerState) error
	Load() (*ControllerState, error)
	Append(nodeID string, ks []perfmodel.NFKnobs) error
}

// StateStore persists ControllerState at one path as a snapshot (the
// whole state, atomicio-framed, written by Save) plus a journal beside
// it (one fsynced record per last-known-good change, written by
// Append). The controller is the single writer and serializes calls;
// OpenStateStore sweeps temp files a crashed predecessor left behind.
type StateStore struct {
	path string
	// base sums the snapshot this store last wrote or loaded — what a
	// journal it creates extends. based is false until there is one.
	base  atomicio.Sum
	based bool
	// journal is nil until the first Append after a snapshot.
	journal *atomicio.Journal
	rec     []byte // reused record encode buffer
}

// OpenStateStore prepares a store at path, sweeping stale temp files
// from a crashed writer.
func OpenStateStore(path string) (*StateStore, error) {
	if path == "" {
		return nil, fmt.Errorf("serve: empty state path")
	}
	if _, err := atomicio.Sweep(path); err != nil {
		return nil, err
	}
	return &StateStore{path: path}, nil
}

// Save writes st as the new snapshot, atomically, and retires the
// journal, whose records st already holds: after Save the snapshot is
// the only file and is self-contained.
func (s *StateStore) Save(st *ControllerState) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return fmt.Errorf("serve: encode state: %w", err)
	}
	if err := atomicio.WriteFile(s.path, stateMagic, payload.Bytes()); err != nil {
		return fmt.Errorf("serve: state: %w", err)
	}
	s.base, s.based = atomicio.SumOf(payload.Bytes()), true
	// A crash from here on leaves a journal that names the previous
	// snapshot; Load ignores it.
	s.closeJournal()
	if err := os.Remove(journalPath(s.path)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("serve: retire state journal: %w", err)
	}
	return nil
}

func (s *StateStore) closeJournal() {
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
}

// Append makes one node's new last-known-good durable as a journal
// record, fsynced before it returns. It returns errSnapshotDue,
// writing nothing, when there is no snapshot to extend or the journal
// has grown past the snapshot's size (replaying it would cost more
// than the snapshot it saves rewriting). After a failed write the
// journal refuses every later append; the next Save replaces it.
func (s *StateStore) Append(nodeID string, ks []perfmodel.NFKnobs) error {
	if !s.based || (s.journal != nil && uint64(s.journal.Size()) > s.base.Len) {
		return errSnapshotDue
	}
	if s.journal == nil {
		// Truncates a journal a crashed predecessor left for an older
		// snapshot.
		j, err := atomicio.CreateJournal(journalPath(s.path), journalMagic, s.base)
		if err != nil {
			return fmt.Errorf("serve: state journal: %w", err)
		}
		s.journal = j
	}
	s.rec = appendChange(s.rec[:0], nodeID, ks)
	if err := s.journal.Append(s.rec); err != nil {
		return fmt.Errorf("serve: state journal: %w", err)
	}
	return nil
}

// Load reads and validates the snapshot, then applies on top of it the
// journal that extends it. A missing snapshot returns (nil, nil): a
// fresh controller with nothing to resume. Load writes nothing, so it
// is safe on a stopped fleet's files.
func (s *StateStore) Load() (*ControllerState, error) {
	st, _, err := s.load()
	return st, err
}

// load is Load, also reporting how many journal records it replayed.
func (s *StateStore) load() (*ControllerState, int, error) {
	if _, err := os.Stat(s.path); os.IsNotExist(err) {
		return nil, 0, nil
	}
	payload, err := atomicio.ReadFile(s.path, stateMagic)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: state: %w", err)
	}
	var st ControllerState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, 0, fmt.Errorf("serve: decode state: %w", err)
	}
	base := atomicio.SumOf(payload)
	replayed, err := atomicio.ReadJournal(journalPath(s.path), journalMagic, base, func(body []byte) error {
		nodeID, ks, err := decodeChange(body)
		if err != nil {
			return err
		}
		if st.LastGood == nil {
			st.LastGood = make(map[string][]perfmodel.NFKnobs)
		}
		st.LastGood[nodeID] = ks
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("serve: state: %w", err)
	}
	// A journal with records must be folded into a snapshot (Save)
	// before this store appends: a new journal would overwrite them.
	s.base, s.based = base, replayed == 0
	return &st, replayed, nil
}

// knobsLen is one NFKnobs on disk: three float64 and two int64.
const knobsLen = 5 * 8

// appendKnobs appends a knob config: a uint32 count, then every field
// of every set fixed-width big-endian. The journal record and the
// report reply (rpc.go) both end in one.
func appendKnobs(dst []byte, ks []perfmodel.NFKnobs) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ks)))
	for _, k := range ks {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(k.CPUShare))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(k.FreqGHz))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(k.LLCFraction))
		dst = binary.BigEndian.AppendUint64(dst, uint64(k.DMABytes))
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(k.Batch)))
	}
	return dst
}

// readKnobs is appendKnobs' inverse, appending to dst. body must be
// exactly one config: the count is checked against the bytes present
// before anything is sized by it.
func readKnobs(dst []perfmodel.NFKnobs, body []byte) ([]perfmodel.NFKnobs, bool) {
	if len(body) < 4 {
		return dst, false
	}
	n := uint64(binary.BigEndian.Uint32(body))
	body = body[4:]
	if uint64(len(body)) != n*knobsLen {
		return dst, false
	}
	dst = slices.Grow(dst, int(n))
	for ; len(body) > 0; body = body[knobsLen:] {
		dst = append(dst, perfmodel.NFKnobs{
			CPUShare:    math.Float64frombits(binary.BigEndian.Uint64(body)),
			FreqGHz:     math.Float64frombits(binary.BigEndian.Uint64(body[8:])),
			LLCFraction: math.Float64frombits(binary.BigEndian.Uint64(body[16:])),
			DMABytes:    int64(binary.BigEndian.Uint64(body[24:])),
			Batch:       int(int64(binary.BigEndian.Uint64(body[32:]))),
		})
	}
	return dst, true
}

// appendChange appends the journal record body "set nodeID's
// last-known-good to ks": the ID behind a uint32 length, then the
// config.
func appendChange(dst []byte, nodeID string, ks []perfmodel.NFKnobs) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(nodeID)))
	dst = append(dst, nodeID...)
	return appendKnobs(dst, ks)
}

var errBadChange = errors.New("serve: malformed state journal record")

// decodeChange is appendChange's inverse. The body must be exactly one
// well-formed change; anything else is corruption.
func decodeChange(body []byte) (string, []perfmodel.NFKnobs, error) {
	if len(body) < 4 {
		return "", nil, errBadChange
	}
	idLen := uint64(binary.BigEndian.Uint32(body))
	body = body[4:]
	if idLen == 0 || uint64(len(body)) < idLen+4 {
		return "", nil, errBadChange
	}
	ks, ok := readKnobs([]perfmodel.NFKnobs{}, body[idLen:])
	if !ok {
		return "", nil, errBadChange
	}
	return string(body[:idLen]), ks, nil
}
