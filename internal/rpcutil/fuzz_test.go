package rpcutil

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"testing"
)

// How a walk of client bytes ended.
const (
	clean   = iota // at a frame boundary
	torn           // inside a preamble or frame: a disconnect, not an offence
	refused        // at bytes the server must refuse
)

// wellFormed walks bytes the way the protocol reads them, written out
// independently of readFrame: it returns the sequence numbers of the
// frames before the walk ended, and how it ended.
func wellFormed(data []byte) (seqs []uint64, end int) {
	if len(data) == 0 {
		return nil, clean
	}
	if len(data) < len(preamble) {
		return nil, torn
	}
	if string(data[:len(preamble)]) != preamble {
		return nil, refused
	}
	for data = data[len(preamble):]; len(data) > 0; {
		if len(data) < 4 {
			return seqs, torn
		}
		n := int(binary.BigEndian.Uint32(data))
		if n < minFrame || n > maxFrame {
			return seqs, refused
		}
		if len(data)-4 < n {
			return seqs, torn
		}
		f := data[4 : 4+n]
		data = data[4+n:]
		kindAt := 9 + int(f[8]) + 2
		if kindAt < len(f) {
			kindAt += int(binary.BigEndian.Uint16(f[kindAt-2:]))
		}
		if kindAt >= len(f) || f[kindAt] > kindGob || f[kindAt] == kindNone && kindAt != len(f)-1 {
			return seqs, refused
		}
		seqs = append(seqs, binary.BigEndian.Uint64(f))
	}
	return seqs, clean
}

// FuzzServerConn throws arbitrary bytes at a live server, one
// connection per input. The server must close the connection once the
// bytes run out (no hang, no panic — a panic kills the test binary),
// answer no more frames than were well formed, answer them in order,
// never run a handler on a value its ReadWire refused, and count a
// rejection whenever the bytes stopped being the protocol.
func FuzzServerConn(f *testing.F) {
	swapCall := func(seq uint64, a int) func(*link) error {
		return func(l *link) error { return l.appendFrame(seq, "Mixed.Swap", "", &pair{A: a, B: 7}) }
	}
	valid := rawFrames(f, reverseCall(1, "abc"), swapCall(2, 1), swapCall(3, -1), reverseCall(4, ""))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(rawFrames(f, func(l *link) error { return l.appendFrame(9, "Mixed.Nope", "", &pair{}) }, swapCall(10, 2)))
	f.Add(rawFrames(f, func(l *link) error { return l.appendFrame(1, "Mixed.Reverse", "", &pair{}) }))
	f.Add(rawFrames(f, func(l *link) error { return l.appendFrame(1, "Mixed.Swap", "an error in a request", nil) }))
	f.Add(append([]byte(preamble), 0xff, 0xff, 0xff, 0xff)) // a 4 GiB frame
	var old bytes.Buffer                                    // how a net/rpc client opens
	gob.NewEncoder(&old).Encode(struct {
		ServiceMethod string
		Seq           uint64
	}{"Controller.Report", 1})
	f.Add(old.Bytes())
	f.Add([]byte{})

	m, srv := serveMixed(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		before := srv.Stats()
		got := exchange(t, srv.Addr(), data)
		seqs, end := wellFormed(data)
		after := srv.Stats()
		if m.undecoded.Load() != 0 {
			t.Fatal("a handler ran on an argument ReadWire had refused")
		}
		if end == refused && after.Rejected == before.Rejected {
			t.Errorf("input the server must refuse counted no rejection: %+v -> %+v", before, after)
		}
		if len(got) == 0 {
			return
		}
		if len(seqs) == 0 {
			t.Fatalf("server answered %x to input with no well-formed frame", got)
		}
		// The replies are themselves a well-formed stream (a reset may
		// have cut the last one short), one per request at most, in
		// request order.
		replies, _ := wellFormed(got)
		if len(replies) > len(seqs) {
			t.Fatalf("%d replies to %d well-formed frames", len(replies), len(seqs))
		}
		for i, seq := range replies {
			if seq != seqs[i] {
				t.Fatalf("reply %d answers call %d, want %d", i, seq, seqs[i])
			}
		}
		if calls := after.Calls - before.Calls; calls > uint64(len(seqs)) {
			t.Fatalf("%d handler calls for %d well-formed frames", calls, len(seqs))
		}
	})
}
