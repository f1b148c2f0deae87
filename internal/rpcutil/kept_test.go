package rpcutil

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
)

// lifeArgs and lifeReply cross as gob, which leaves a field the
// sender's zero value omits as the receiver had it.
type lifeArgs struct {
	Tag  string
	Once bool // set the reply's Once
	Fail bool // write the reply, then fail
}

type lifeReply struct {
	Tag  string
	Once int
}

// Life echoes its argument's tag, and fails a call whose reply is not
// empty on entry.
type Life struct{}

func (Life) Echo(in *lifeArgs, out *lifeReply) error {
	if *out != (lifeReply{}) {
		return fmt.Errorf("reply not empty on entry: %+v", *out)
	}
	out.Tag = in.Tag
	if in.Once {
		out.Once = 1
	}
	if in.Fail {
		return errSentinel
	}
	return nil
}

func serveLife(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("Life", Life{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// The server keeps one argument and one reply per method on a
// connection, and each call still sees only its own: an argument field
// the caller left zero reads zero, a reply field an earlier call set
// reads zero, and a failed call's half-written reply reaches no later
// one.
func TestKeptValuesStartEmpty(t *testing.T) {
	srv := serveLife(t)
	conn, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, c := range []struct {
		args lifeArgs
		want lifeReply
		fail bool
	}{
		{args: lifeArgs{Tag: "a", Once: true}, want: lifeReply{Tag: "a", Once: 1}},
		{args: lifeArgs{}, want: lifeReply{}},
		{args: lifeArgs{Tag: "half", Once: true, Fail: true}, fail: true},
		{args: lifeArgs{Tag: "b"}, want: lifeReply{Tag: "b"}},
	} {
		var got lifeReply // fresh: gob leaves omitted fields as they were
		err := conn.Call("Life.Echo", &c.args, &got)
		if c.fail {
			if !Matches(err, errSentinel) {
				t.Fatalf("call %d: %v, want the handler's failure", i, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Fatalf("call %d with %+v: %+v, %v; want %+v", i, c.args, got, err, c.want)
		}
	}
}

// Each connection keeps values of its own: two connections calling
// one method concurrently get their own replies (and the race detector
// sees no shared write).
func TestKeptValuesPerConnection(t *testing.T) {
	srv := serveLife(t)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		conn, err := Dial(srv.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				args := lifeArgs{Tag: fmt.Sprintf("conn%d-%d", c, i), Once: i%2 == 0}
				var got lifeReply
				if err := conn.Call("Life.Echo", &args, &got); err != nil || got.Tag != args.Tag || (got.Once == 1) != args.Once {
					t.Errorf("conn %d call %d: %+v, %v", c, i, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A frame header's declared length sizes nothing by itself: a peer
// that declares the largest frame and sends three bytes of it leaves
// the link holding one read's worth of buffer, not 16 MiB.
func TestDeclaredLengthSizesNothing(t *testing.T) {
	peer, end := net.Pipe()
	defer end.Close()
	go func() {
		peer.Write(append([]byte(preamble), 0x01, 0x00, 0x00, 0x00, 1, 2, 3)) // 16 MiB declared
		peer.Close()
	}()
	l := newLink(end)
	if _, err := l.readFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("a frame cut after 3 of 16 MiB read as %v, want io.ErrUnexpectedEOF", err)
	}
	if c := cap(l.rbuf); c > growChunk {
		t.Errorf("3 bytes of a 16 MiB frame left a %d-byte read buffer, want at most %d", c, growChunk)
	}
}

// rawBody is a layout that is its bytes, for frames of any size.
type rawBody []byte

func (r *rawBody) AppendWire(dst []byte) []byte { return append(dst, *r...) }
func (r *rawBody) ReadWire(body []byte) error   { *r = append((*r)[:0], body...); return nil }

// A frame larger than the read buffer arrives whole as the buffer
// grows, and the next frame of its size is read into the same buffer.
func TestGrownBufferReadsWholeFrames(t *testing.T) {
	peer, end := net.Pipe()
	defer end.Close()
	sent := make(rawBody, 300<<10)
	for i := range sent {
		sent[i] = byte(i * 7)
	}
	go func() {
		w := newLink(peer)
		for seq := uint64(1); seq <= 2; seq++ {
			if err := w.appendFrame(seq, "Raw.Put", "", &sent); err != nil {
				t.Error(err)
				return
			}
			// Dribble the frame out so the reader grows across reads.
			for b := w.wbuf; len(b) > 0; b = b[min(len(b), 1000):] {
				if _, err := peer.Write(b[:min(len(b), 1000)]); err != nil {
					return
				}
			}
			w.wbuf = w.wbuf[:0]
		}
		peer.Close()
	}()
	l := newLink(end)
	var grown []byte
	for seq := uint64(1); seq <= 2; seq++ {
		f, err := l.readFrame()
		if err != nil || f.seq != seq || string(f.method) != "Raw.Put" {
			t.Fatalf("frame %d: seq %d method %q, %v", seq, f.seq, f.method, err)
		}
		var got rawBody
		if err := l.decodeBody(f.kind, f.body, &got); err != nil || string(got) != string(sent) {
			t.Fatalf("frame %d: %d of %d bytes intact, %v", seq, len(got), len(sent), err)
		}
		if seq == 2 && &l.rbuf[:1][0] != &grown[:1][0] {
			t.Error("a second frame of the same size grew the read buffer again")
		}
		grown = l.rbuf
	}
}
