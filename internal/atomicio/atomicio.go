package atomicio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// MagicLen is the required magic length: 8 bytes, by convention an
// ASCII tag ending in a format version digit (e.g. "GNFVCKP2").
const MagicLen = 8

// headerLen is magic + uint64 payload length + uint32 CRC.
const headerLen = MagicLen + 8 + 4

// Sum identifies a payload by its length and IEEE CRC32 — what a
// framed file's header records about its own payload, and what a
// journal's header records about the file it extends.
type Sum struct {
	Len uint64
	CRC uint32
}

// SumOf computes payload's Sum.
func SumOf(payload []byte) Sum {
	return Sum{Len: uint64(len(payload)), CRC: crc32.ChecksumIEEE(payload)}
}

// appendHeader appends the header shared by framed files and
// journals: magic, then sum's length and CRC, big-endian.
func appendHeader(dst []byte, magic string, sum Sum) []byte {
	dst = append(dst, magic...)
	dst = binary.BigEndian.AppendUint64(dst, sum.Len)
	return binary.BigEndian.AppendUint32(dst, sum.CRC)
}

// parseHeader checks raw's magic and returns the Sum its header
// carries. The one refusal of every other format, older or newer,
// names the magic it found beside the one it wants.
func parseHeader(raw []byte, magic string) (Sum, error) {
	if len(raw) < headerLen {
		return Sum{}, fmt.Errorf("atomicio: %d bytes, shorter than the %d-byte header", len(raw), headerLen)
	}
	if found := string(raw[:MagicLen]); found != magic {
		return Sum{}, fmt.Errorf("atomicio: magic %q, want %q", found, magic)
	}
	return Sum{
		Len: binary.BigEndian.Uint64(raw[MagicLen : MagicLen+8]),
		CRC: binary.BigEndian.Uint32(raw[MagicLen+8 : headerLen]),
	}, nil
}

// checkMagic rejects a magic of the wrong length.
func checkMagic(magic string) error {
	if len(magic) != MagicLen {
		return fmt.Errorf("atomicio: magic %q must be %d bytes", magic, MagicLen)
	}
	return nil
}

// syncDir makes a create, rename or remove in dir durable;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// tempPattern returns the os.CreateTemp pattern for a destination
// base name. The dot prefix keeps in-flight temps out of globs and
// directory listings; the base name ties a leftover temp to the file
// whose writer crashed, which is what lets Sweep target only its own.
func tempPattern(base string) string { return "." + base + ".tmp-*" }

// WriteFile atomically writes payload to path under the given magic:
// temp file in the same directory, fsync, rename, best-effort
// directory sync. On error the temp file is removed; path is either
// untouched or fully replaced, never torn.
func WriteFile(path, magic string, payload []byte) error {
	if err := checkMagic(magic); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, tempPattern(filepath.Base(path)))
	if err != nil {
		return fmt.Errorf("atomicio: temp file: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	var header [headerLen]byte
	if _, err := f.Write(appendHeader(header[:0], magic, SumOf(payload))); err != nil {
		return cleanup(fmt.Errorf("atomicio: write: %w", err))
	}
	if _, err := f.Write(payload); err != nil {
		return cleanup(fmt.Errorf("atomicio: write: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("atomicio: sync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicio: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicio: publish: %w", err)
	}
	syncDir(dir)
	return nil
}

// ReadFile reads and validates a framed file: magic, length and CRC
// must all match before the payload is returned.
func ReadFile(path, magic string) ([]byte, error) {
	if err := checkMagic(magic); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("atomicio: read: %w", err)
	}
	want, err := parseHeader(raw, magic)
	if err != nil {
		return nil, err
	}
	payload := raw[headerLen:]
	if uint64(len(payload)) != want.Len {
		return nil, fmt.Errorf("atomicio: truncated file: header says %d payload bytes, have %d",
			want.Len, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != want.CRC {
		return nil, fmt.Errorf("atomicio: corrupt file: CRC %08x, want %08x", got, want.CRC)
	}
	return payload, nil
}

// Sweep removes stale temp files a crashed writer of path may have
// left behind (a SIGKILL between CreateTemp and the rename). Call it
// from the process that owns path, at startup, before the first
// WriteFile — never while another writer of the same path may be
// mid-write. Missing directory or no leftovers is not an error; the
// count of removed files is returned.
func Sweep(path string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(filepath.Dir(path), tempPattern(filepath.Base(path))))
	if err != nil {
		return 0, fmt.Errorf("atomicio: sweep: %w", err)
	}
	removed := 0
	for _, m := range matches {
		if os.Remove(m) == nil {
			removed++
		}
	}
	return removed, nil
}

// StrayTemps lists leftover temp files for path without removing
// them — the hook tests use to assert a suite leaves nothing behind.
func StrayTemps(path string) ([]string, error) {
	return filepath.Glob(filepath.Join(filepath.Dir(path), tempPattern(filepath.Base(path))))
}
