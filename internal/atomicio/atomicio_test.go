package atomicio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testMagic = "GNFVTST1"

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	payload := []byte("the quick brown fox")
	if err := WriteFile(path, testMagic, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload round-trip: got %q want %q", got, payload)
	}
	// Overwrite is atomic and replaces the content.
	if err := WriteFile(path, testMagic, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ = ReadFile(path, testMagic); string(got) != "v2" {
		t.Errorf("overwrite not visible: %q", got)
	}
	// No temp droppings after successful writes.
	stray, err := StrayTemps(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(stray) != 0 {
		t.Errorf("stray temp files after clean writes: %v", stray)
	}
}

// TestWritePiecesIsWriteWhole: a payload handed to WriteFile in pieces
// makes byte for byte the file its concatenation makes as one piece,
// and SumOf the pieces is SumOf the concatenation — for no pieces,
// empty pieces and a payload split at every byte.
func TestWritePiecesIsWriteWhole(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, pieces ...[]byte) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := WriteFile(path, testMagic, pieces...); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	payload := []byte("header|policy section|records")
	rows := map[string][][]byte{
		"no pieces":     nil,
		"one empty":     {{}},
		"nil and empty": {nil, {}, nil},
		"empty between": {payload[:6], {}, payload[6:], nil},
		"byte by byte": func() [][]byte {
			var ps [][]byte
			for i := range payload {
				ps = append(ps, payload[i:i+1])
			}
			return ps
		}(),
	}
	for at := 0; at <= len(payload); at++ {
		rows[fmt.Sprintf("split at %d", at)] = [][]byte{payload[:at], payload[at:]}
	}
	for name, pieces := range rows {
		whole := bytes.Join(pieces, nil)
		want := file("whole", whole)
		if got := file("pieces", pieces...); !bytes.Equal(got, want) {
			t.Errorf("%s: pieces wrote %x, their concatenation %x", name, got, want)
		}
		if got, want := SumOf(pieces...), SumOf(whole); got != want {
			t.Errorf("%s: SumOf the pieces is %+v, of their concatenation %+v", name, got, want)
		}
		if got, err := ReadFile(filepath.Join(dir, "pieces"), testMagic); err != nil || !bytes.Equal(got, whole) {
			t.Errorf("%s: read back %q, %v, want %q", name, got, err, whole)
		}
	}
}

// TestReadRejectsCorruption: ReadFile refuses a framed file whose
// payload has a flipped byte or is cut short, one under another magic
// by quoting the magic it found beside the one it wants — escaped,
// whatever the file held — and one shorter than its header by its
// length.
func TestReadRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := WriteFile(path, testMagic, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A wrong magic is refused by quoting it beside the one wanted —
	// escaped, whatever the file held where the magic should be.
	magic := func(found string) string { return fmt.Sprintf("magic %q, want %q", found, testMagic) }
	for _, tc := range []struct{ name, data, says string }{
		{"flipped payload byte", string(raw[:len(raw)-2]) + string([]byte{raw[len(raw)-2] ^ 0x40, raw[len(raw)-1]}), "corrupt file"},
		{"truncated", string(raw[:len(raw)-3]), "truncated file"},
		{"another tag", "GNFVTST2" + string(raw[MagicLen:]), `magic "GNFVTST2", want "GNFVTST1"`},
		{"hostile magic", hostileMagic + string(raw[MagicLen:]), magic(hostileMagic)},
		{"too short", string(raw[:headerLen-1]), "19 bytes, shorter than the 20-byte header"},
		{"garbage", "not a framed file at all........", magic("not a fr")},
	} {
		bad := filepath.Join(t.TempDir(), "bad")
		if err := os.WriteFile(bad, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadFile(bad, testMagic)
		if err == nil || !strings.Contains(err.Error(), tc.says) {
			t.Errorf("%s: ReadFile returned %v, want an error saying %s", tc.name, err, tc.says)
		} else if !printable(err.Error()) {
			t.Errorf("%s: refusal %q carries unescaped bytes", tc.name, err)
		}
	}
}

// hostileMagic is what a file may hold where the magic should be:
// NUL, a terminal escape and bytes that are not UTF-8.
const hostileMagic = "\xff\x00\x1b[2J\xfe\x80"

// printable reports whether s is all printable ASCII.
func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < ' ' || s[i] > '~' {
			return false
		}
	}
	return true
}

func TestWriteRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := WriteFile(path, "short", nil); err == nil {
		t.Error("5-byte magic accepted")
	}
	if _, err := ReadFile(path, "toolongmagic"); err == nil {
		t.Error("12-byte magic accepted")
	}
}

func TestSweepRemovesOnlyOwnTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	other := filepath.Join(dir, "other")
	// Simulate two crashed writers and one innocent bystander file.
	for _, name := range []string{
		".ckpt.tmp-123", ".ckpt.tmp-456", ".other.tmp-1", "ckpt.real",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := Sweep(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("swept %d files, want 2", n)
	}
	if stray, _ := StrayTemps(path); len(stray) != 0 {
		t.Errorf("temps survive sweep: %v", stray)
	}
	if stray, _ := StrayTemps(other); len(stray) != 1 {
		t.Errorf("sweep removed another file's temps (left %v)", stray)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt.real")); err != nil {
		t.Errorf("sweep touched a non-temp file: %v", err)
	}
	// Sweeping a path in a missing directory is not an error.
	if _, err := Sweep(filepath.Join(dir, "nope", "ckpt")); err != nil {
		t.Errorf("sweep of missing dir: %v", err)
	}
}

// FuzzReadFile: arbitrary bytes on disk never panic ReadFile, and a
// payload it accepts is one WriteFile frames back to the same bytes —
// the header is a function of the payload, so an accepted file has
// exactly one form.
func FuzzReadFile(f *testing.F) {
	for _, payload := range []string{"", "the quick brown fox"} {
		f.Add(append(appendHeader(nil, testMagic, SumOf([]byte(payload))), payload...))
	}
	f.Add([]byte(testMagic))
	f.Add(append(appendHeader(nil, testMagic, Sum{Len: 1 << 62}), 'x'))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in, out := filepath.Join(dir, "in"), filepath.Join(dir, "out")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFile(in, testMagic)
		if err != nil {
			return
		}
		if err := WriteFile(out, testMagic, payload); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, data) {
			t.Fatalf("accepted %d bytes, WriteFile framed them as %d different bytes", len(data), len(raw))
		}
		again, err := ReadFile(out, testMagic)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("rewritten payload reads back as %q, %v", again, err)
		}
	})
}
