package atomicio

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

const testJournalMagic = "GNFVTSJ1"

// writeJournal appends bodies to a new journal bound to base and
// returns its bytes plus the file size after each append.
func writeJournal(t *testing.T, path string, base Sum, bodies ...string) ([]byte, []int64) {
	t.Helper()
	j, err := CreateJournal(path, testJournalMagic, base)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var sizes []int64
	for _, b := range bodies {
		if err := j.Append([]byte(b)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, j.Size())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != j.Size() {
		t.Fatalf("Size() = %d, file has %d bytes", j.Size(), len(raw))
	}
	return raw, sizes
}

// replay returns the bodies ReadJournal applies.
func replay(t *testing.T, path string, base Sum) ([]string, error) {
	t.Helper()
	var got []string
	n, err := ReadJournal(path, testJournalMagic, base, func(body []byte) error {
		got = append(got, string(body))
		return nil
	})
	if n != len(got) {
		t.Fatalf("ReadJournal reported %d records, applied %d", n, len(got))
	}
	return got, err
}

func TestJournalRoundTripAndBinding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.journal")
	base := SumOf([]byte("the framed file's payload"))
	if got, err := replay(t, path, base); err != nil || got != nil {
		t.Fatalf("missing journal: %v, %v", got, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("ReadJournal created the file")
	}
	want := []string{"one", "", "three three three"}
	writeJournal(t, path, base, want...)
	got, err := replay(t, path, base)
	if err != nil || len(got) != len(want) {
		t.Fatalf("replay: %q, %v", got, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %q, want %q", i, got[i], want[i])
		}
	}
	// The same journal beside a different base replays nothing.
	if got, err := replay(t, path, SumOf([]byte("a newer payload"))); err != nil || got != nil {
		t.Errorf("journal for another base: %q, %v", got, err)
	}
	if _, err := replay(t, path, base); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path, "GNFVXXX1", base, func([]byte) error { return nil }); err == nil {
		t.Error("wrong magic accepted")
	}
	// CreateJournal replaces what was there.
	writeJournal(t, path, base, "fresh")
	if got, _ := replay(t, path, base); len(got) != 1 || got[0] != "fresh" {
		t.Errorf("after re-create: %q", got)
	}
}

// TestJournalTornTailAndCorruption cuts a journal at every offset
// (each prefix replays exactly its whole records) and damages it in
// the ways that must be errors.
func TestJournalTornTailAndCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.journal")
	base := SumOf([]byte("payload"))
	bodies := []string{"alpha", "bravo-bravo", "charlie"}
	raw, sizes := writeJournal(t, path, base, bodies...)
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0
		for whole < len(sizes) && sizes[whole] <= int64(cut) {
			whole++
		}
		got, err := replay(t, path, base)
		if err != nil || len(got) != whole {
			t.Fatalf("cut at %d: replayed %q, %v; want the first %d records", cut, got, err, whole)
		}
	}

	second := int(sizes[0])
	huge := append([]byte(nil), raw...)
	binary.BigEndian.PutUint32(huge[second:], MaxRecordLen+1)
	flipLast := append([]byte(nil), raw...)
	flipLast[len(flipLast)-1] ^= 1
	flipMid := append([]byte(nil), raw...)
	flipMid[second+recordHeaderLen] ^= 1
	cases := []struct {
		name    string
		data    []byte
		records int
		bad     bool
	}{
		{"flipped final record is a torn tail", flipLast, 2, false},
		{"flipped middle record", flipMid, 1, true},
		{"length above MaxRecordLen", huge, 1, true},
		{"zero-filled tail", append(append([]byte(nil), raw...), make([]byte, 32)...), 3, true},
		{"zero tail of one empty frame", append(append([]byte(nil), raw...), make([]byte, recordHeaderLen)...), 3, false},
	}
	for _, tc := range cases {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := replay(t, path, base)
		if (err != nil) != tc.bad || len(got) != tc.records {
			t.Errorf("%s: replayed %d records, err %v; want %d records, error %v", tc.name, len(got), err, tc.records, tc.bad)
		}
	}

	// An apply error stops the replay and fails the read.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ReadJournal(path, testJournalMagic, base, func(body []byte) error {
		if bytes.HasPrefix(body, []byte("bravo")) {
			return os.ErrInvalid
		}
		return nil
	})
	if err == nil || n != 1 {
		t.Errorf("apply error: %d records, err %v; want 1 and an error", n, err)
	}
}

func TestJournalAppendErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.journal")
	j, err := CreateJournal(path, testJournalMagic, Sum{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// Refusing a record writes nothing and poisons nothing.
	if err := j.Append([]byte("ok")); err != nil {
		t.Fatalf("append after a refused record: %v", err)
	}
	// A failed write is sticky: the tail is unknown from here on.
	j.f.Close()
	if err := j.Append([]byte("lost")); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if err := j.Append([]byte("also lost")); err == nil {
		t.Fatal("append after a failed append succeeded")
	}
	if got, err := replay(t, path, Sum{}); err != nil || len(got) != 1 || got[0] != "ok" {
		t.Errorf("replay after failed appends: %q, %v", got, err)
	}
	if _, err := CreateJournal(path, "short", Sum{}); err == nil {
		t.Error("bad magic accepted")
	}
}

// FuzzReadJournal: arbitrary record bytes never panic scanRecords, and
// the records it applies round-trip through Append: a journal of those
// bodies holds exactly the prefix of the input they came from, the rest
// being the torn tail the scan dropped, and replays the same bodies.
func FuzzReadJournal(f *testing.F) {
	var records []byte // what Append writes after the header
	for _, body := range []string{"alpha", "", "charlie"} {
		at := len(records)
		records = binary.BigEndian.AppendUint32(records, uint32(len(body)))
		records = binary.BigEndian.AppendUint32(records, recordCRC(records[at:at+4], []byte(body)))
		records = append(records, body...)
	}
	f.Add(records)
	f.Add(records[:len(records)-2])
	f.Add(make([]byte, 3*recordHeaderLen))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var bodies []string
		n, err := scanRecords(data, func(body []byte) error {
			bodies = append(bodies, string(body))
			return nil
		})
		if n != len(bodies) {
			t.Fatalf("scanRecords reported %d records, applied %d", n, len(bodies))
		}
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "journal")
		rewritten, _ := writeJournal(t, path, Sum{}, bodies...)
		if len(bodies) == 0 {
			return // nothing was appended, so nothing was written
		}
		if records := rewritten[headerLen:]; !bytes.HasPrefix(data, records) {
			t.Fatalf("%d applied records re-append as bytes that do not prefix the input", n)
		}
		got, err := replay(t, path, Sum{})
		if err != nil || len(got) != len(bodies) {
			t.Fatalf("re-appended journal replays %d records, %v; want %d", len(got), err, len(bodies))
		}
		for i := range got {
			if got[i] != bodies[i] {
				t.Fatalf("record %d replays as %q, want %q", i, got[i], bodies[i])
			}
		}
	})
}
