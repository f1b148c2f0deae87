package atomicio

import (
	"bytes"
	"os"
	"path/filepath"
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

func TestReadRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := WriteFile(path, testMagic, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"flipped payload byte": append(append([]byte(nil), raw[:len(raw)-2]...), raw[len(raw)-2]^0x40, raw[len(raw)-1]),
		"truncated":            raw[:len(raw)-3],
		"wrong magic":          append([]byte("XXXXXXX1"), raw[MagicLen:]...),
		"too short":            raw[:headerLen-1],
		"garbage":              []byte("not a framed file at all........"),
	}
	for name, data := range cases {
		bad := filepath.Join(t.TempDir(), "bad")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(bad, testMagic); err == nil {
			t.Errorf("%s: ReadFile accepted corrupt file", name)
		}
	}
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
