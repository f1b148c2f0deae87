package rpcutil

import (
	"bytes"
	"errors"
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

// wireArgs and wireReply are lifeArgs and lifeReply laid out:
// u8 flags (1 Once, 2 Fail) | tag, and u8 once | tag.
type (
	wireArgs  lifeArgs
	wireReply lifeReply
)

func (a *wireArgs) AppendWire(dst []byte) []byte {
	flags := byte(0)
	if a.Once {
		flags |= 1
	}
	if a.Fail {
		flags |= 2
	}
	return append(append(dst, flags), a.Tag...)
}

func (a *wireArgs) ReadWire(body []byte) error {
	if len(body) < 1 || body[0] > 3 {
		return errors.New("wireArgs: bad flags")
	}
	*a = wireArgs{Tag: string(body[1:]), Once: body[0]&1 != 0, Fail: body[0]&2 != 0}
	return nil
}

func (r *wireReply) AppendWire(dst []byte) []byte {
	return append(append(dst, byte(r.Once)), r.Tag...)
}

func (r *wireReply) ReadWire(body []byte) error {
	if len(body) < 1 || body[0] > 1 {
		return errors.New("wireReply: bad once")
	}
	*r = wireReply{Tag: string(body[1:]), Once: int(body[0])}
	return nil
}

// WireLife is Life over the laid-out messages.
type WireLife struct{}

func (WireLife) Echo(in *wireArgs, out *wireReply) error {
	return Life{}.Echo((*lifeArgs)(in), (*lifeReply)(out))
}

// lifeServer is Life.Echo served one way, and how a call of it carries
// the test's lifeArgs and lifeReply.
type lifeServer struct {
	name string
	*Server
	msgs func(*lifeArgs, *lifeReply) (args, reply any)
}

// serveLife serves Life.Echo three ways: by reflection over gob
// messages, and over laid-out ones both by reflection and typed.
func serveLife(t *testing.T) []lifeServer {
	t.Helper()
	start := func(srv *Server, err error) *Server {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	gob := func(a *lifeArgs, r *lifeReply) (any, any) { return a, r }
	laidOut := func(a *lifeArgs, r *lifeReply) (any, any) { return (*wireArgs)(a), (*wireReply)(r) }
	return []lifeServer{
		{"gob", start(Serve("Life", Life{}, "127.0.0.1:0")), gob},
		{"reflected", start(Serve("Life", WireLife{}, "127.0.0.1:0")), laidOut},
		{"typed", start(ServeHandlers("127.0.0.1:0", map[string]Handler{"Life.Echo": Method(WireLife{}.Echo)})), laidOut},
	}
}

// sameReplies sends one connection's worth of requests to each server
// and fails unless all of them answer with the same bytes.
func sameReplies(t *testing.T, requests []byte, srvs ...*Server) {
	t.Helper()
	want := exchange(t, srvs[0].Addr(), requests)
	if len(want) <= len(preamble) {
		t.Fatal("no reply frame: the comparison would prove nothing")
	}
	for _, srv := range srvs[1:] {
		if got := exchange(t, srv.Addr(), requests); !bytes.Equal(got, want) {
			t.Errorf("replies differ across registrations:\n%x\n%x", got, want)
		}
	}
}

// echoCalls is one connection's worth of Life.Echo requests with
// laid-out arguments.
func echoCalls(t *testing.T, args ...lifeArgs) []byte {
	t.Helper()
	calls := make([]func(*link) error, len(args))
	for i := range args {
		calls[i] = func(l *link) error { return l.appendFrame(uint64(i+1), "Life.Echo", "", (*wireArgs)(&args[i])) }
	}
	return rawFrames(t, calls...)
}

// The server keeps one argument and one reply per method on a
// connection, and each call still sees only its own: an argument field
// the caller left zero reads zero, a reply field an earlier call set
// reads zero, and a failed call's half-written reply reaches no later
// one. A typed handler answers with the bytes of a reflected one.
func TestKeptValuesStartEmpty(t *testing.T) {
	cases := []struct {
		args lifeArgs
		want lifeReply
		fail bool
	}{
		{args: lifeArgs{Tag: "a", Once: true}, want: lifeReply{Tag: "a", Once: 1}},
		{args: lifeArgs{}, want: lifeReply{}},
		{args: lifeArgs{Tag: "half", Once: true, Fail: true}, fail: true},
		{args: lifeArgs{Tag: "b"}, want: lifeReply{Tag: "b"}},
	}
	srvs := serveLife(t)
	for _, srv := range srvs {
		conn, err := Dial(srv.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i, c := range cases {
			var got lifeReply // fresh: gob leaves omitted fields as they were
			args, reply := srv.msgs(&c.args, &got)
			err := conn.Call("Life.Echo", args, reply)
			if c.fail {
				if !Matches(err, errSentinel) {
					t.Fatalf("%s call %d: %v, want the handler's failure", srv.name, i, err)
				}
				continue
			}
			if err != nil || got != c.want {
				t.Fatalf("%s call %d with %+v: %+v, %v; want %+v", srv.name, i, c.args, got, err, c.want)
			}
		}
	}
	var args []lifeArgs
	for _, c := range cases {
		args = append(args, c.args)
	}
	sameReplies(t, echoCalls(t, args...), srvs[1].Server, srvs[2].Server)
}

// Each connection keeps values of its own: two connections calling
// one method concurrently get their own replies (and the race detector
// sees no shared write), whichever way the method is registered.
func TestKeptValuesPerConnection(t *testing.T) {
	srvs := serveLife(t)
	for _, srv := range srvs {
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
					in := lifeArgs{Tag: fmt.Sprintf("conn%d-%d", c, i), Once: i%2 == 0}
					var got lifeReply
					args, reply := srv.msgs(&in, &got)
					if err := conn.Call("Life.Echo", args, reply); err != nil || got.Tag != in.Tag || (got.Once == 1) != in.Once {
						t.Errorf("%s conn %d call %d: %+v, %v", srv.name, c, i, got, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	var args []lifeArgs
	for i := 0; i < 20; i++ {
		args = append(args, lifeArgs{Tag: fmt.Sprint(i), Once: i%2 == 0})
	}
	sameReplies(t, echoCalls(t, args...), srvs[1].Server, srvs[2].Server)
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
