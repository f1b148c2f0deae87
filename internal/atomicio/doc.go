// Package atomicio is the crash-safe file persistence shared by the
// training checkpoints (internal/rl/apex) and the serving control
// plane's controller state (internal/serve): framed, checksummed
// payloads written atomically so a SIGKILL at any instant leaves
// either the previous file or the new one, never a torn hybrid — and
// an append-only journal of checksummed records beside such a file,
// from which a SIGKILL at any instant loses at most the one record
// whose append had not returned.
//
// # File format
//
// An 8-byte caller-chosen magic (which doubles as a format version),
// the big-endian uint64 payload length, the IEEE CRC32 of the
// payload, then the payload. ReadFile rejects a wrong magic, a length
// that disagrees with the file size, and a CRC mismatch — the
// torn-read case of a file copied off a dying machine — before the
// caller ever decodes a byte. A wrong magic is refused with an error
// that quotes the magic found and the one wanted; this one refusal
// covers every other format, older or newer, so no caller keeps a
// list of the formats it used to write. A file shorter than the
// header is refused with its length.
//
// # Write protocol
//
// WriteFile creates a temp file next to the destination (same
// directory, so the rename cannot cross filesystems), writes header
// and payload, fsyncs, closes, renames over the destination, and
// best-effort fsyncs the directory. A writer killed mid-write leaves
// only a stale temp file; Sweep(path) removes such leftovers and is
// called by the owning process on startup (single-writer-per-file is
// the contract — two live writers sharing one path would sweep each
// other's in-flight temps).
//
// # Journal and record frame
//
// A Journal extends one framed file with small appended records, for
// state whose changes are much smaller than the state: the owner
// rewrites the framed file rarely and appends a record per change.
// The journal file is a header in the file frame's own layout — an
// 8-byte magic, then the payload length and CRC32 (a Sum) of the
// framed file it extends, not of itself — followed by records. A
// record is the big-endian uint32 body length, the IEEE CRC32 of that
// length field followed by the body, then the body (at most
// MaxRecordLen bytes). Journal.Append writes one record and fsyncs
// before returning; the header goes out with the first record, and the
// directory is fsynced once after it.
//
// ReadJournal replays records only when the header's Sum equals the
// Sum of the framed file as it is now; otherwise the journal belongs
// to an older file and is skipped. Because each append is fsynced
// before the next begins, only the last record can be torn: a final
// record that is short or fails its CRC is dropped, and so is a file
// cut inside its header. A failing record with bytes after it, a
// length above MaxRecordLen or a wrong magic is corruption and an
// error. (One ambiguity is inherent: a damaged length field that
// points past the end of the file reads as a torn tail.) Covering the
// length field with the CRC keeps a zero-filled tail from checking out
// as an empty record.
//
// # Concurrency and determinism
//
// Functions here are stateless and safe for concurrent use on
// distinct paths; a Journal is single-owner. Output bytes are a pure function of (magic,
// payload) plus the rename, so checkpoint files are byte-reproducible
// for identical payloads.
package atomicio
