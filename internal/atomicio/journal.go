package atomicio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// recordHeaderLen is uint32 body length + uint32 CRC.
const recordHeaderLen = 4 + 4

// MaxRecordLen bounds a journal record's body. Append refuses longer
// bodies, so a scanned length field above it is corruption — which
// keeps most damaged length fields from passing as a torn tail.
const MaxRecordLen = 1 << 20

// recordCRC is the IEEE CRC32 of a record's length field followed by
// its body. Covering the length means a zero-filled tail (a file
// extended by a crash before its data blocks landed) never checks out
// as an empty record.
func recordCRC(lenField, body []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(lenField), crc32.IEEETable, body)
}

// Journal appends CRC-framed records to one file, each durable before
// Append returns. It extends one framed file (its base): the header
// names that file's Sum, and ReadJournal replays records only onto a
// base that still matches. A Journal is single-owner, not
// goroutine-safe.
type Journal struct {
	f   *os.File
	dir string
	// buf is the reused write buffer; until the first Append it holds
	// the unwritten header, so header and first record land in one
	// write and one fsync.
	buf  []byte
	size int64
	err  error // sticky: the file's tail is unknown after a failed write
}

// CreateJournal starts an empty journal at path extending the framed
// file whose payload sums to base, replacing whatever was there.
// Nothing reaches the disk until the first Append.
func CreateJournal(path, magic string, base Sum) (*Journal, error) {
	if err := checkMagic(magic); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atomicio: journal: %w", err)
	}
	return &Journal{f: f, dir: filepath.Dir(path), buf: appendHeader(nil, magic, base)}, nil
}

// Append writes one record and fsyncs it. After an error the
// journal's tail is unknown and every later Append fails: the owner
// must rewrite the base file and start a new journal.
func (j *Journal) Append(body []byte) error {
	if j.err != nil {
		return j.err
	}
	if len(body) > MaxRecordLen {
		return fmt.Errorf("atomicio: journal record of %d bytes exceeds %d", len(body), MaxRecordLen)
	}
	first := j.size == 0
	at := len(j.buf)
	j.buf = binary.BigEndian.AppendUint32(j.buf, uint32(len(body)))
	j.buf = binary.BigEndian.AppendUint32(j.buf, recordCRC(j.buf[at:at+4], body))
	j.buf = append(j.buf, body...)
	n, err := j.f.Write(j.buf)
	j.size += int64(n)
	j.buf = j.buf[:0]
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.err = fmt.Errorf("atomicio: journal append: %w", err)
		return j.err
	}
	if first {
		syncDir(j.dir)
	}
	return nil
}

// Size reports the bytes written so far, header included.
func (j *Journal) Size() int64 { return j.size }

// Close releases the file. Every successful Append is already
// durable, so Close has nothing to flush.
func (j *Journal) Close() error { return j.f.Close() }

// ReadJournal replays the journal at path onto the framed file whose
// payload sums to base, calling apply with each record body in append
// order (the slice is only valid during the call), and returns how
// many it applied. A missing journal, one cut short inside its header
// (a crash during creation) and one extending a different base (a
// crash after the base was rewritten, before the journal was retired)
// all replay nothing. A wrong magic, a damaged record that is not the
// last, and an apply error are corruption and fail the read.
func ReadJournal(path, magic string, base Sum, apply func(body []byte) error) (int, error) {
	if err := checkMagic(magic); err != nil {
		return 0, err
	}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) || (err == nil && len(raw) < headerLen) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("atomicio: read journal: %w", err)
	}
	bound, err := parseHeader(raw, magic)
	if err != nil {
		return 0, fmt.Errorf("atomicio: journal: %w", err)
	}
	if bound != base {
		return 0, nil
	}
	return scanRecords(raw[headerLen:], apply)
}

// scanRecords walks the record frames in raw. Only the last append
// can be torn (each was fsynced before the next began), so a final
// record that is short or fails its CRC is dropped — its Append never
// returned — while a failing record with bytes after it is an error.
func scanRecords(raw []byte, apply func(body []byte) error) (int, error) {
	applied := 0
	for len(raw) >= recordHeaderLen {
		n := binary.BigEndian.Uint32(raw[:4])
		if n > MaxRecordLen {
			return applied, fmt.Errorf("atomicio: corrupt journal: record %d claims %d bytes", applied, n)
		}
		end := recordHeaderLen + int(n)
		if len(raw) < end {
			break
		}
		body := raw[recordHeaderLen:end]
		if recordCRC(raw[:4], body) != binary.BigEndian.Uint32(raw[4:recordHeaderLen]) {
			if len(raw) == end {
				break
			}
			return applied, fmt.Errorf("atomicio: corrupt journal: record %d fails its CRC", applied)
		}
		if err := apply(body); err != nil {
			return applied, fmt.Errorf("atomicio: journal record %d: %w", applied, err)
		}
		applied++
		raw = raw[end:]
	}
	return applied, nil
}
