package serve

// Crash-safety tests for the two-file controller state (snapshot plus
// journal): every truncation of the journal recovers a prefix, damage
// is an error, a journal for another snapshot is ignored, a killed
// controller's successor serves the same state, and nothing in the
// persist path defers durability past the reply.

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"greennfv/internal/atomicio"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// testKnobs is a distinguishable two-NF config.
func testKnobs(tag int) []perfmodel.NFKnobs {
	return []perfmodel.NFKnobs{
		{CPUShare: 1.5, FreqGHz: 1.8, LLCFraction: 0.25, DMABytes: 4 << 20, Batch: tag},
		{CPUShare: 0.5, FreqGHz: 2.1, LLCFraction: 0.5, DMABytes: 1 << 20, Batch: -tag},
	}
}

// journaledStore saves a four-node snapshot at a fresh path and appends
// changes on top. It returns the store's path, the state expected
// after each journal prefix (want[k]: snapshot plus the first k
// records) and the journal's size after each append (sizes[0] is 0: no
// file yet).
func journaledStore(t testing.TB, dir string) (path string, want []map[string][]perfmodel.NFKnobs, sizes []int64) {
	t.Helper()
	path = filepath.Join(dir, "controller.state")
	store, err := OpenStateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Four nodes: the snapshot must outsize the journal's first three
	// records, or the fourth append is refused as compaction due.
	state := map[string][]perfmodel.NFKnobs{
		"node-a": testKnobs(1), "node-b": testKnobs(2), "node-d": testKnobs(3), "node-e": testKnobs(4),
	}
	if err := store.Save(&ControllerState{PolicyBlob: []byte("policy"), PolicyVersion: 3, LastGood: state}); err != nil {
		t.Fatal(err)
	}
	clone := func() map[string][]perfmodel.NFKnobs {
		c := make(map[string][]perfmodel.NFKnobs, len(state))
		for id, ks := range state {
			c[id] = ks
		}
		return c
	}
	want, sizes = append(want, clone()), append(sizes, 0)
	for i, id := range []string{"node-b", "node-c", "node-a", "node-c"} {
		ks := testKnobs(10 + i)
		if err := store.Append(id, ks); err != nil {
			t.Fatal(err)
		}
		state[id] = ks
		info, err := os.Stat(journalPath(path))
		if err != nil {
			t.Fatal(err)
		}
		want, sizes = append(want, clone()), append(sizes, info.Size())
	}
	store.closeJournal()
	return path, want, sizes
}

// loadAt loads the state at path through a fresh store.
func loadAt(t testing.TB, path string) (*ControllerState, error) {
	t.Helper()
	store, err := OpenStateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return store.Load()
}

// TestJournalCrashMatrix cuts the journal at every byte offset — so
// inside its header, on every record boundary and inside every record
// — and requires Load to return exactly the snapshot plus the records
// that fit whole: no error, no panic, no partly applied record.
func TestJournalCrashMatrix(t *testing.T) {
	path, want, sizes := journaledStore(t, t.TempDir())
	journal, err := os.ReadFile(journalPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(journal)) != sizes[len(sizes)-1] {
		t.Fatalf("journal is %d bytes, last append left %d", len(journal), sizes[len(sizes)-1])
	}
	for cut := 0; cut <= len(journal); cut++ {
		if err := os.WriteFile(journalPath(path), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := loadAt(t, path)
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", cut, len(journal), err)
		}
		whole := 0
		for whole+1 < len(sizes) && sizes[whole+1] <= int64(cut) {
			whole++
		}
		if !reflect.DeepEqual(st.LastGood, want[whole]) {
			t.Fatalf("cut at %d: recovered %+v, want the first %d records: %+v", cut, st.LastGood, whole, want[whole])
		}
		if st.PolicyVersion != 3 || string(st.PolicyBlob) != "policy" {
			t.Fatalf("cut at %d: snapshot fields changed: version %d blob %q", cut, st.PolicyVersion, st.PolicyBlob)
		}
	}
}

// TestJournalCorruptionIsAnError flips one byte at a time: damage to a
// record that has records after it, to a record body that still
// checks out as a frame but not as a change, or to the header magic
// fails Load as loudly as a corrupt snapshot does.
func TestJournalCorruptionIsAnError(t *testing.T) {
	path, _, sizes := journaledStore(t, t.TempDir())
	journal, err := os.ReadFile(journalPath(path))
	if err != nil {
		t.Fatal(err)
	}
	second := int(sizes[1]) // the second record's frame starts here
	for name, off := range map[string]int{
		"header magic":       3,
		"mid-journal CRC":    second + 5,
		"mid-journal body":   second + 8 + 6,
		"first record's end": second - 1,
	} {
		bad := append([]byte(nil), journal...)
		bad[off] ^= 0x20
		if err := os.WriteFile(journalPath(path), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := loadAt(t, path); err == nil {
			t.Errorf("%s flipped at %d: Load returned %+v, want an error", name, off, st.LastGood)
		}
	}
	// A frame that passes its CRC around a body that is not a change.
	store, err := OpenStateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(&ControllerState{PolicyBlob: []byte("policy"), PolicyVersion: 3}); err != nil {
		t.Fatal(err)
	}
	if err := store.Append("node-a", testKnobs(1)); err != nil {
		t.Fatal(err)
	}
	store.rec = append(store.rec[:0], "not a change record"...)
	if err := store.journal.Append(store.rec); err != nil {
		t.Fatal(err)
	}
	store.closeJournal()
	if _, err := loadAt(t, path); err == nil {
		t.Error("malformed record body accepted")
	}
}

// TestStaleJournalIsIgnored stages the crash between publishing a
// snapshot and retiring the old journal: the journal names the
// previous snapshot, everything in it is already in the new one, so
// Load ignores it and the next append overwrites it.
func TestStaleJournalIsIgnored(t *testing.T) {
	path, _, _ := journaledStore(t, t.TempDir())
	stale, err := os.ReadFile(journalPath(path))
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	next := map[string][]perfmodel.NFKnobs{"node-a": testKnobs(77)}
	if err := store.Save(&ControllerState{PolicyBlob: []byte("policy-2"), PolicyVersion: 4, LastGood: next}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(journalPath(path)); !os.IsNotExist(err) {
		t.Fatalf("Save left the journal behind (stat: %v)", err)
	}
	if err := os.WriteFile(journalPath(path), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st.PolicyVersion != 4 || !reflect.DeepEqual(st.LastGood, next) {
		t.Fatalf("stale journal leaked into the load: version %d, %+v", st.PolicyVersion, st.LastGood)
	}
	if err := store.Append("node-b", testKnobs(78)); err != nil {
		t.Fatal(err)
	}
	store.closeJournal()
	next["node-b"] = testKnobs(78)
	if st, err = loadAt(t, path); err != nil || !reflect.DeepEqual(st.LastGood, next) {
		t.Fatalf("after overwriting the stale journal: %+v, %v", st, err)
	}
}

// TestJournalCompactsAtSnapshotSize pins the derived bound: Append
// refuses once the journal is larger than the snapshot it extends, a
// fresh store refuses outright, and Save resets both.
func TestJournalCompactsAtSnapshotSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "controller.state")
	store, err := OpenStateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append("node-a", testKnobs(1)); err != errSnapshotDue {
		t.Fatalf("append without a snapshot: %v, want errSnapshotDue", err)
	}
	st := &ControllerState{PolicyBlob: bytes.Repeat([]byte{7}, 1000), PolicyVersion: 1}
	if err := store.Save(st); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	appends := 0
	for ; appends < 1000; appends++ {
		err := store.Append("node-a", testKnobs(appends))
		if err == errSnapshotDue {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	journal, err := os.Stat(journalPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if appends == 0 || journal.Size() < snapshot.Size()/2 || journal.Size() > 2*snapshot.Size() {
		t.Fatalf("refused after %d appends with a %d-byte journal beside a %d-byte snapshot",
			appends, journal.Size(), snapshot.Size())
	}
	if err := store.Save(st); err != nil {
		t.Fatal(err)
	}
	if err := store.Append("node-a", testKnobs(1)); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
}

// TestSnapshotLayout pins the snapshot payload (state.go) region by
// region — the policy version, the length-prefixed blob, then one
// change record per node in ascending ID order, each byte for byte a
// journal record's body — and that a state encodes to the same bytes,
// in a buffer of the exact length, whatever its map's order. Save
// refuses what Load would refuse, and Load refuses with an error every
// malformed payload in the table, each inside a sound frame.
func TestSnapshotLayout(t *testing.T) {
	blob := []byte("policy-section")
	lastGood := map[string][]perfmodel.NFKnobs{
		"node-b": testKnobs(2), "node-a": testKnobs(1), "node-c": {}, "node-ab": testKnobs(3)[:1],
	}
	ids := []string{"node-a", "node-ab", "node-b", "node-c"}
	path := filepath.Join(t.TempDir(), "controller.state")
	store, err := OpenStateStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(&ControllerState{PolicyBlob: blob, PolicyVersion: 7, LastGood: lastGood}); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(file, []byte(stateMagic)) {
		t.Fatalf("snapshot opens with %q, want %q", file[:8], stateMagic)
	}
	payload := file[20:] // magic, u64 length, u32 CRC
	size := 8 + 4 + len(blob)
	for _, id := range ids {
		size += 8 + len(id) + 40*len(lastGood[id])
	}
	if len(payload) != size {
		t.Fatalf("payload is %d bytes, want %d", len(payload), size)
	}
	if v := binary.BigEndian.Uint64(payload); v != 7 {
		t.Errorf("policy version reads %d, want 7", v)
	}
	if n := binary.BigEndian.Uint32(payload[8:]); n != uint32(len(blob)) || !bytes.Equal(payload[12:12+n], blob) {
		t.Errorf("blob region is %d bytes %q, want %q", n, payload[12:], blob)
	}
	rest := payload[12+len(blob):]
	for _, id := range ids {
		idLen := int(binary.BigEndian.Uint32(rest))
		if got := string(rest[4 : 4+idLen]); got != id {
			t.Fatalf("record for %q where %q belongs", got, id)
		}
		n := int(binary.BigEndian.Uint32(rest[4+idLen:]))
		record := rest[:8+idLen+40*n]
		if n != len(lastGood[id]) || !bytes.Equal(record, appendChange(nil, id, lastGood[id])) {
			t.Fatalf("%s: the snapshot's record is not the journal's", id)
		}
		rest = rest[len(record):]
	}

	// The same state, built in another order, encodes the same.
	again := make(map[string][]perfmodel.NFKnobs)
	for i := len(ids) - 1; i >= 0; i-- {
		again[ids[i]] = lastGood[ids[i]]
	}
	for i := 0; i < 5; i++ {
		got, err := encodeState(&ControllerState{PolicyBlob: blob, PolicyVersion: 7, LastGood: again})
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("re-encoding gave different bytes: %v", err)
		}
		if cap(got) != len(got) {
			t.Fatalf("encoded into a %d-byte buffer, want the exact %d", cap(got), len(got))
		}
	}
	st, err := loadAt(t, path)
	if err != nil || st.PolicyVersion != 7 || !bytes.Equal(st.PolicyBlob, blob) || !reflect.DeepEqual(st.LastGood, lastGood) {
		t.Fatalf("Load: %+v, %v", st, err)
	}

	for name, bad := range map[string]*ControllerState{
		"version 0":   {PolicyBlob: blob, PolicyVersion: 0},
		"empty ID":    {PolicyBlob: blob, PolicyVersion: 1, LastGood: map[string][]perfmodel.NFKnobs{"": testKnobs(1)}},
		"256-byte ID": {PolicyBlob: blob, PolicyVersion: 1, LastGood: map[string][]perfmodel.NFKnobs{strings.Repeat("n", 256): testKnobs(1)}},
	} {
		if err := store.Save(bad); err == nil {
			t.Errorf("Save accepted a state with %s", name)
		}
	}

	header := func(version int64, blobLen int) []byte {
		b := binary.BigEndian.AppendUint64(nil, uint64(version))
		return binary.BigEndian.AppendUint32(b, uint32(blobLen))
	}
	body := payload[12+len(blob):]
	first := appendChange(nil, "node-a", lastGood["node-a"])
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, bad := range map[string][]byte{
		"empty":                 {},
		"cut in version":        payload[:5],
		"cut in blob length":    payload[:10],
		"cut in blob":           payload[:12+3],
		"cut in record ID len":  payload[:12+len(blob)+2],
		"cut in record ID":      payload[:12+len(blob)+6],
		"cut in record count":   payload[:12+len(blob)+4+6+2],
		"cut in record knobs":   payload[:12+len(blob)+len(first)-1],
		"cut in last record":    payload[:len(payload)-1],
		"blob length past end":  cat(header(7, len(payload)-12+1), payload[12:]),
		"blob length 4 GiB":     cat(header(7, 1<<32-1), payload[12:]),
		"version 0":             cat(header(0, len(blob)), payload[8+4:]),
		"negative version":      cat(header(-1, len(blob)), payload[8+4:]),
		"unsorted IDs":          cat(payload[:12+len(blob)], body[len(first):], first),
		"duplicate ID":          cat(payload[:12+len(blob)], first, first),
		"empty ID":              cat(header(1, 0), appendChange(nil, "", testKnobs(1))),
		"256-byte ID":           cat(header(1, 0), appendChange(nil, strings.Repeat("n", 256), testKnobs(1))),
		"ID length past end":    cat(header(1, 0), binary.BigEndian.AppendUint32(nil, 1<<31), []byte("node")),
		"knob count past end":   cat(header(1, 0), first[:4+6], binary.BigEndian.AppendUint32(nil, 1<<30), first[len(first)-40:]),
		"partial trailing byte": cat(payload, []byte{0}),
		"partial trailing rec":  cat(payload, first[:len(first)-1]),
	} {
		if err := atomicio.WriteFile(path, stateMagic, bad); err != nil {
			t.Fatal(err)
		}
		if st, err := loadAt(t, path); err == nil {
			t.Errorf("%s: Load accepted %+v", name, st)
		}
	}
}

// TestJournalRefusesUnregistrableIDs: a journal record's node ID must
// be one a node could have registered (checkNodeID) — a 256-byte ID
// fails Load like any other malformed record, and a 255-byte one
// replays.
func TestJournalRefusesUnregistrableIDs(t *testing.T) {
	for _, tc := range []struct {
		id string
		ok bool
	}{{strings.Repeat("n", MaxNodeIDLen), true}, {strings.Repeat("n", MaxNodeIDLen+1), false}, {"", false}} {
		path := filepath.Join(t.TempDir(), "controller.state")
		store, err := OpenStateStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(&ControllerState{PolicyBlob: []byte("policy"), PolicyVersion: 1}); err != nil {
			t.Fatal(err)
		}
		if err := store.Append(tc.id, testKnobs(1)); err != nil {
			t.Fatal(err)
		}
		store.closeJournal()
		st, err := loadAt(t, path)
		if tc.ok && (err != nil || !reflect.DeepEqual(st.LastGood[tc.id], testKnobs(1))) {
			t.Errorf("%d-byte ID: %v", len(tc.id), err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%d-byte ID: Load accepted %d nodes", len(tc.id), len(st.LastGood))
		}
	}
}

// stateFiles lists the state directory.
func stateFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// fleetLastGood snapshots the controller's view of nodes.
func fleetLastGood(c *Controller, nodes []*simNode) map[string][]perfmodel.NFKnobs {
	lg := make(map[string][]perfmodel.NFKnobs)
	for _, n := range nodes {
		lg[n.id] = c.LastGood(n.id)
	}
	return lg
}

// TestKillAndRestartServesSameState is the kill-equivalent: a
// controller that made N config changes durable and then vanished
// without Close. Its successor serves the dead one's exact policy
// version and per-node last-known-good, starts from a folded snapshot,
// and after its own Close leaves exactly one file — which alone
// restarts a third controller to the same state.
func TestKillAndRestartServesSameState(t *testing.T) {
	policyDir, stateDir := t.TempDir(), t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	statePath := filepath.Join(stateDir, "controller.state")
	cfg := Config{Spec: spec, PolicyPath: writePolicy(t, policyDir, spec, 51), StatePath: statePath}
	dead, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*simNode, 4)
	for i := range nodes {
		nodes[i] = newSimNode(t, spec, i)
		if err := nodes[i].register(dead); err != nil {
			t.Fatal(err)
		}
	}
	drive := func(c *Controller, rounds int) {
		t.Helper()
		for r := 0; r < rounds; r++ {
			for _, n := range nodes {
				if _, err := n.step(c); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	drive(dead, 2)
	if err := dead.ReloadPolicy(writePolicy(t, t.TempDir(), spec, 52)); err != nil {
		t.Fatal(err)
	}
	drive(dead, 6)
	if got := dead.Counters().Get(CounterStateJournalAppends); got == 0 {
		t.Fatal("no change went through the journal; test vacuous")
	}
	if got := dead.Counters().Get(CounterStatePersistErrors); got != 0 {
		t.Fatalf("%d persist errors", got)
	}
	want := fleetLastGood(dead, nodes)
	// dead is abandoned here: no Close, its journal stays behind.
	if _, err := os.Stat(journalPath(statePath)); err != nil {
		t.Fatalf("the killed controller left no journal: %v", err)
	}

	successor, err := NewController(Config{Spec: spec, StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	if v := successor.PolicyVersion(); v != 2 {
		t.Errorf("successor serves policy version %d, want 2", v)
	}
	if got := fleetLastGood(successor, nodes); !reflect.DeepEqual(got, want) {
		t.Errorf("successor last-known-good %+v, want %+v", got, want)
	}
	if got := successor.Counters().Get(CounterStateSnapshots); got != 1 {
		t.Errorf("successor wrote %d snapshots at boot, want 1 (the fold)", got)
	}
	if files := stateFiles(t, stateDir); !reflect.DeepEqual(files, []string{"controller.state"}) {
		t.Errorf("after recovery the state directory holds %v, want only the snapshot", files)
	}
	for _, n := range nodes {
		if err := n.register(successor); err != nil {
			t.Fatal(err)
		}
	}
	drive(successor, 2)
	want = fleetLastGood(successor, nodes)
	if err := successor.Close(); err != nil {
		t.Fatal(err)
	}
	if files := stateFiles(t, stateDir); !reflect.DeepEqual(files, []string{"controller.state"}) {
		t.Errorf("after Close the state directory holds %v, want only the snapshot", files)
	}

	// The snapshot alone, copied elsewhere, restarts to the same state.
	moved := filepath.Join(t.TempDir(), "moved.state")
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(moved, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	third, err := NewController(Config{Spec: spec, StatePath: moved})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if v := third.PolicyVersion(); v != 2 {
		t.Errorf("third controller serves policy version %d, want 2", v)
	}
	if got := fleetLastGood(third, nodes); !reflect.DeepEqual(got, want) {
		t.Errorf("third controller last-known-good %+v, want %+v", got, want)
	}
}

// TestReportsRacingReload storms reports from a fleet while policies
// hot-reload: appends, snapshots and journal retirement interleave
// freely, and once everything has returned the files hold exactly
// what the controller serves. Run under -race.
func TestReportsRacingReload(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	statePath := filepath.Join(dir, "controller.state")
	policies := []string{writePolicy(t, t.TempDir(), spec, 61), writePolicy(t, t.TempDir(), spec, 62)}
	ctrl, err := NewController(Config{Spec: spec, PolicyPath: policies[0], StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	const fleet, rounds, reloads = 8, 12, 6
	nodes := make([]*simNode, fleet)
	for i := range nodes {
		nodes[i] = newSimNode(t, spec, i)
		if err := nodes[i].register(ctrl); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n *simNode) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := n.step(ctrl); err != nil {
					t.Errorf("%s round %d: %v", n.id, r, err)
					return
				}
			}
		}(n)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= reloads; i++ {
			if err := ctrl.ReloadPolicy(policies[i%2]); err != nil {
				t.Errorf("reload %d: %v", i, err)
			}
		}
	}()
	wg.Wait()
	if got := ctrl.Counters().Get(CounterStatePersistErrors); got != 0 {
		t.Fatalf("%d persist errors", got)
	}
	// Not closed: the comparison covers snapshot plus live journal.
	st, err := loadAt(t, statePath)
	if err != nil {
		t.Fatal(err)
	}
	if st.PolicyVersion != ctrl.PolicyVersion() || st.PolicyVersion != 1+reloads {
		t.Errorf("persisted policy version %d, serving %d, want %d", st.PolicyVersion, ctrl.PolicyVersion(), 1+reloads)
	}
	if want := fleetLastGood(ctrl, nodes); !reflect.DeepEqual(st.LastGood, want) {
		t.Errorf("persisted last-known-good %+v, serving %+v", st.LastGood, want)
	}
}

// TestServingHoldsPolicyOnly gates what serving reads and keeps of a
// checkpoint: after boot, after a resume and after a hot reload, the
// state file's PolicyBlob is the checkpoint's policy-only form — the
// policy section, without the critic, target, optimiser or noise bytes
// behind it — and a ReloadPolicy allocates at most twice the file.
func TestServingHoldsPolicyOnly(t *testing.T) {
	spec := testSpec(sla.NewEnergyEfficiency())
	// The default topology with optimiser moments: a file the size
	// greennfv -save-policy writes.
	hidden := ddpg.DefaultConfig(0, 0).Hidden
	policies := []string{
		writeTrainedPolicy(t, t.TempDir(), spec, 71, hidden, 2),
		writeTrainedPolicy(t, t.TempDir(), spec, 72, hidden, 2),
	}
	statePath := filepath.Join(t.TempDir(), "controller.state")
	persists := func(when, policy string) {
		t.Helper()
		st, err := loadAt(t, statePath)
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(policy)
		if err != nil {
			t.Fatal(err)
		}
		actor, _, form, err := ddpg.LoadPolicy(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.PolicyBlob, form) {
			t.Errorf("%s: the state file holds a %d-byte policy, not the %d-byte policy-only form of the %d-byte checkpoint",
				when, len(st.PolicyBlob), len(form), len(file))
		}
		if extra := len(st.PolicyBlob) - len(actor.Actor.ParamFrame()); extra > 256 {
			t.Errorf("%s: the persisted policy carries %d bytes beside the actor frame", when, extra)
		}
		if _, err := ddpg.LoadAgentBytes(st.PolicyBlob); err == nil {
			t.Errorf("%s: a whole agent decodes from the persisted policy", when)
		}
	}

	boot, err := NewController(Config{Spec: spec, PolicyPath: policies[0], StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	persists("after boot", policies[0])
	ctrl, err := NewController(Config{Spec: spec, StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.snapshot(); err != nil {
		t.Fatal(err)
	}
	persists("after resume", policies[0])
	if err := ctrl.ReloadPolicy(policies[1]); err != nil {
		t.Fatal(err)
	}
	persists("after reload", policies[1])

	info, err := os.Stat(policies[0])
	if err != nil {
		t.Fatal(err)
	}
	const reloads = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reloads; i++ {
		if err := ctrl.ReloadPolicy(policies[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perReload := float64(after.TotalAlloc-before.TotalAlloc) / reloads
	t.Logf("ReloadPolicy allocates %.0f bytes for a %d-byte checkpoint (%.2fx)", perReload, info.Size(), perReload/float64(info.Size()))
	if perReload > 2*float64(info.Size()) {
		t.Errorf("ReloadPolicy allocates %.0f bytes, over twice the %d-byte checkpoint", perReload, info.Size())
	}
}

// TestResumeRefusesPreSectionState: a state file whose policy is a bare
// agent state, with no policy section in front — here the training
// state behind a fresh checkpoint's section — is refused at boot with
// an error naming the file and the cause, rather than served or
// silently replaced by the boot checkpoint.
func TestResumeRefusesPreSectionState(t *testing.T) {
	spec := testSpec(sla.NewEnergyEfficiency())
	file, err := os.ReadFile(writePolicy(t, t.TempDir(), spec, 7))
	if err != nil {
		t.Fatal(err)
	}
	_, _, form, err := ddpg.LoadPolicy(file)
	if err != nil {
		t.Fatal(err)
	}
	bare := file[len(form):]
	statePath := filepath.Join(t.TempDir(), "controller.state")
	store, err := OpenStateStore(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(&ControllerState{PolicyBlob: bare, PolicyVersion: 3}); err != nil {
		t.Fatal(err)
	}
	_, err = NewController(Config{Spec: spec, PolicyPath: writePolicy(t, t.TempDir(), spec, 9), StatePath: statePath})
	if err == nil || !strings.Contains(err.Error(), statePath) || !strings.Contains(err.Error(), "no GNFVPOL1 policy section") {
		t.Fatalf("resuming a pre-section state file: %v", err)
	}
}

// TestPersistPathHasNoDeferredDurability pins the reply-implies-
// durable contract structurally: the files that decide when a config
// change reaches the disk start no goroutine and own no timer, ticker
// or sleep, so there is nothing that could flush "later".
func TestPersistPathHasNoDeferredDurability(t *testing.T) {
	banned := regexp.MustCompile(`\bgo\s+(func\b|[\w.]+\()|time\.(After|AfterFunc|Sleep|Tick|NewTimer|NewTicker)\b`)
	for _, file := range []string{"state.go", "controller.go", "../atomicio/journal.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(src, []byte("\n")) {
			code, _, _ := bytes.Cut(line, []byte("//"))
			if m := banned.Find(code); m != nil {
				t.Errorf("%s:%d uses %q — a config change must be durable before its report replies, with no background flusher or timer", file, i+1, m)
			}
		}
	}
}

// FuzzStateLoad feeds Load arbitrary snapshot and journal bytes:
// whatever they are, it returns a state or an error — never a panic,
// never both or neither — and a state it returns is one Save accepts.
// When no journal record was replayed, that Save writes the input
// snapshot back byte for byte. The committed corpus in
// testdata/fuzz/FuzzStateLoad (torn, flipped, stale, oversized and
// zero-filled journals, one under another magic; damaged snapshots —
// see TestStateLoadCorpus) runs as an ordinary test beside the valid
// pair added here.
func FuzzStateLoad(f *testing.F) {
	path, _, _ := journaledStore(f, f.TempDir())
	snapshot, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(journalPath(path))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshot, journal)
	f.Fuzz(func(t *testing.T, snapshot, journal []byte) {
		path := filepath.Join(t.TempDir(), "controller.state")
		if err := os.WriteFile(path, snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalPath(path), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		loader, err := OpenStateStore(path)
		if err != nil {
			t.Fatal(err)
		}
		st, replayed, err := loader.load()
		if (st == nil) == (err == nil) {
			t.Fatalf("Load returned state %v and error %v", st, err)
		}
		if err != nil {
			return
		}
		// What loaded must survive a save and load again unchanged.
		again := filepath.Join(t.TempDir(), "again.state")
		store, err := OpenStateStore(again)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Save(st); err != nil {
			t.Fatal(err)
		}
		if written, err := os.ReadFile(again); err != nil || replayed == 0 && !bytes.Equal(written, snapshot) {
			t.Fatalf("a snapshot loaded with no journal records saves back as other bytes (%v)", err)
		}
		back, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v", back.LastGood) != fmt.Sprintf("%v", st.LastGood) {
			t.Fatalf("state changed across a save: %v then %v", st.LastGood, back.LastGood)
		}
	})
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzStateLoad")

// TestStateLoadCorpus holds the committed FuzzStateLoad corpus to the
// damage each entry's name describes, applied to journaledStore's
// snapshot and journal, so that a change of layout cannot leave the
// corpus testing only a refusal of the magic. After one, `go test
// ./internal/serve -run TestStateLoadCorpus -update-corpus` rewrites
// the entries.
func TestStateLoadCorpus(t *testing.T) {
	path, _, sizes := journaledStore(t, t.TempDir())
	snapshot, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(journalPath(path))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(b []byte, off int, bit byte) []byte {
		b = bytes.Clone(b)
		b[off] ^= bit
		return b
	}
	second := int(sizes[1]) // the second record's frame starts here
	huge := bytes.Clone(journal)
	binary.BigEndian.PutUint32(huge[second:], 1<<30)
	dir := filepath.Join("testdata", "fuzz", "FuzzStateLoad")
	for name, in := range map[string][2][]byte{
		"bad-magic":        {snapshot, flip(journal, 2, 0x20)},
		"corrupt-snapshot": {flip(snapshot, len(snapshot)-5, 0x20), journal},
		"flipped-mid":      {snapshot, flip(journal, second+20, 0x20)},
		"huge-length":      {snapshot, huge},
		"no-journal":       {snapshot, nil},
		"other-snapshot":   {snapshot, flip(journal, 12, 0x01)}, // header names a snapshot 16 MiB longer
		"short-snapshot":   {snapshot[:30], journal},
		"torn-header":      {snapshot, journal[:13]},
		"torn-tail":        {snapshot, journal[:len(journal)-91]},
		"zero-tail":        {snapshot, append(bytes.Clone(journal), make([]byte, 64)...)},
	} {
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(in[0])) + ")\n[]byte(" + strconv.Quote(string(in[1])) + ")\n"
		file := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.WriteFile(file, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(file); err != nil || string(got) != want {
			t.Errorf("corpus entry %s is missing or stale (go test ./internal/serve -run TestStateLoadCorpus -update-corpus): %v", name, err)
		}
	}
}
