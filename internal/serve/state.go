package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"

	"greennfv/internal/atomicio"
	"greennfv/internal/perfmodel"
)

// stateMagic identifies (and versions) the controller state snapshot;
// journalMagic the journal of config changes that extends it.
const (
	stateMagic   = "GNFVSRV2"
	journalMagic = "GNFVSRJ1"
)

// The snapshot payload, inside the atomicio frame, is big-endian:
//
//	i64 policyVersion (>= 1; boot is 1)
//	u32 blobLen | blob (PolicyBlob)
//	change records to the end of the payload, node IDs strictly
//	ascending, each u32 idLen | id | u32 n | n × 40-byte knobs
//
// A change record is byte for byte a journal record's body, so the
// snapshot and the journal share one encoder (appendChange) and one
// decoder (splitChange), and a given state always encodes to the same
// bytes. doc.go ("Crash safety") lists what Load refuses.
const stateHeaderLen = 8 + 4

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
	payload, err := encodeState(st)
	if err != nil {
		return err
	}
	if err := atomicio.WriteFile(s.path, stateMagic, payload); err != nil {
		return fmt.Errorf("serve: state: %w", err)
	}
	s.base, s.based = atomicio.SumOf(payload), true
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
		return nil, 0, fmt.Errorf("serve: state file %s: %w", s.path, err)
	}
	st, err := decodeState(payload)
	if err != nil {
		return nil, 0, err
	}
	base := atomicio.SumOf(payload)
	replayed, err := atomicio.ReadJournal(journalPath(s.path), journalMagic, base, func(body []byte) error {
		nodeID, ks, rest, err := splitChange(body)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return errBadChange
		}
		st.LastGood[nodeID] = ks
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("serve: state journal %s: %w", journalPath(s.path), err)
	}
	// A journal with records must be folded into a snapshot (Save)
	// before this store appends: a new journal would overwrite them.
	s.base, s.based = base, replayed == 0
	return st, replayed, nil
}

// encodeState lays st out as a snapshot payload, in one buffer of the
// exact length. It refuses what decodeState would refuse.
func encodeState(st *ControllerState) ([]byte, error) {
	if st.PolicyVersion < 1 {
		return nil, fmt.Errorf("serve: state: policy version %d, want >= 1", st.PolicyVersion)
	}
	if len(st.PolicyBlob) > math.MaxUint32 {
		return nil, fmt.Errorf("serve: state: %d-byte policy", len(st.PolicyBlob))
	}
	ids := slices.Sorted(maps.Keys(st.LastGood))
	size := stateHeaderLen + len(st.PolicyBlob)
	for _, id := range ids {
		if err := checkNodeID(id); err != nil {
			return nil, fmt.Errorf("serve: state: %w", err)
		}
		size += 4 + len(id) + 4 + knobsLen*len(st.LastGood[id])
	}
	payload := binary.BigEndian.AppendUint64(make([]byte, 0, size), uint64(st.PolicyVersion))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(st.PolicyBlob)))
	payload = append(payload, st.PolicyBlob...)
	for _, id := range ids {
		payload = appendChange(payload, id, st.LastGood[id])
	}
	return payload, nil
}

// decodeState is encodeState's inverse; PolicyBlob aliases payload.
func decodeState(payload []byte) (*ControllerState, error) {
	if len(payload) < stateHeaderLen {
		return nil, fmt.Errorf("serve: state snapshot of %d bytes, shorter than its header", len(payload))
	}
	version := int64(binary.BigEndian.Uint64(payload))
	blobLen := uint64(binary.BigEndian.Uint32(payload[8:]))
	rest := payload[stateHeaderLen:]
	if version < 1 {
		return nil, fmt.Errorf("serve: state snapshot: policy version %d, want >= 1", version)
	}
	if blobLen > uint64(len(rest)) {
		return nil, fmt.Errorf("serve: state snapshot: a %d-byte policy in %d bytes", blobLen, len(rest))
	}
	st := &ControllerState{
		PolicyBlob:    rest[:blobLen:blobLen],
		PolicyVersion: int(version),
		LastGood:      make(map[string][]perfmodel.NFKnobs),
	}
	prev := ""
	for rest = rest[blobLen:]; len(rest) > 0; {
		id, ks, next, err := splitChange(rest)
		if err != nil {
			return nil, fmt.Errorf("serve: state snapshot: %w", err)
		}
		if id <= prev {
			return nil, fmt.Errorf("serve: state snapshot: node %q after %q", id, prev)
		}
		st.LastGood[id], prev, rest = ks, id, next
	}
	return st, nil
}

// knobsLen is one NFKnobs on disk: three float64 and two int64.
const knobsLen = 5 * 8

// appendKnobs appends a knob config: a uint32 count, then every field
// of every set fixed-width big-endian. A change record and the report
// reply (rpc.go) both end in one.
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

// appendChange appends the change record "set nodeID's
// last-known-good to ks" — a journal record's body, and one entry of
// the snapshot: u32 idLen | id | u32 n | n × 40-byte knobs.
func appendChange(dst []byte, nodeID string, ks []perfmodel.NFKnobs) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(nodeID)))
	dst = append(dst, nodeID...)
	return appendKnobs(dst, ks)
}

var errBadChange = errors.New("serve: malformed state change record")

// splitChange is appendChange's inverse: it reads the change record at
// the front of b and returns the bytes after it. The node ID must be
// one a node could have registered (checkNodeID), and the knob count
// must fit the bytes present.
func splitChange(b []byte) (string, []perfmodel.NFKnobs, []byte, error) {
	if len(b) < 4 {
		return "", nil, nil, errBadChange
	}
	idLen := uint64(binary.BigEndian.Uint32(b))
	b = b[4:]
	if idLen > uint64(len(b)) {
		return "", nil, nil, errBadChange
	}
	id := string(b[:idLen])
	if err := checkNodeID(id); err != nil {
		return "", nil, nil, fmt.Errorf("%w: %w", errBadChange, err)
	}
	b = b[idLen:]
	if len(b) < 4 || uint64(len(b)-4)/knobsLen < uint64(binary.BigEndian.Uint32(b)) {
		return "", nil, nil, errBadChange
	}
	end := 4 + knobsLen*int(binary.BigEndian.Uint32(b))
	ks, _ := readKnobs([]perfmodel.NFKnobs{}, b[:end])
	return id, ks, b[end:], nil
}
