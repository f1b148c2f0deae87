package rpcutil

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"greennfv/internal/faultrpc"
)

// blob is the tests' laid-out message: u8 n | n bytes, exactly. decoded
// records that ReadWire accepted the value, so a handler can tell it
// was never handed a message that failed to decode.
type blob struct {
	Data    []byte
	decoded bool
}

func (b *blob) AppendWire(dst []byte) []byte {
	return append(append(dst, byte(len(b.Data))), b.Data...)
}

func (b *blob) ReadWire(body []byte) error {
	if len(body) < 1 || len(body) != 1+int(body[0]) {
		return errors.New("blob: bad length")
	}
	b.Data, b.decoded = append(b.Data[:0], body[1:]...), true
	return nil
}

// pair is a message without a layout: it crosses as gob, and its type
// descriptor crosses once per connection.
type pair struct {
	A, B int
}

// Mixed serves one laid-out and one gob-bodied method.
type Mixed struct {
	undecoded atomic.Int64 // Reverse calls whose argument ReadWire never accepted
}

// Reverse returns its argument's bytes reversed.
func (m *Mixed) Reverse(in *blob, out *blob) error {
	if !in.decoded {
		m.undecoded.Add(1)
	}
	for i := len(in.Data) - 1; i >= 0; i-- {
		out.Data = append(out.Data, in.Data[i])
	}
	return nil
}

// Swap returns its argument's fields exchanged; a negative A fails.
func (m *Mixed) Swap(in *pair, out *pair) error {
	if in.A < 0 {
		return errSentinel
	}
	out.A, out.B = in.B, in.A
	return nil
}

func serveMixed(t testing.TB) (*Mixed, *Server) {
	t.Helper()
	m := &Mixed{}
	srv, err := Serve("Mixed", m, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return m, srv
}

// Goroutines sharing one Conn take turns and each gets the reply to
// its own call.
func TestSharedConnRepliesReachTheirCallers(t *testing.T) {
	_, srv := serveMixed(t)
	conn, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in, out := pair{A: g, B: i}, pair{}
				if err := conn.Call("Mixed.Swap", &in, &out); err != nil || out != (pair{A: i, B: g}) {
					t.Errorf("goroutine %d call %d: got %+v, %v", g, i, out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Close from another goroutine fails a call that has no deadline and a
// handler that never answers.
func TestCloseUnblocksParkedCall(t *testing.T) {
	svc, srv := serve(t)
	defer close(svc.release)
	conn, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		in, out := 1, 0
		done <- conn.Call("Svc.Block", &in, &out)
	}()
	// The handler runs once the server has counted the call.
	for srv.Stats().Calls == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := conn.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrShutdown) {
			t.Errorf("parked call returned %v, want ErrShutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the call parked")
	}
}

// Laid-out and gob bodies share a connection, and a call that fails —
// no reply body crosses — between two gob calls leaves the gob stream
// in step. So does a call to a method that does not exist, whose gob
// argument the server must read to discard.
func TestGobAndWireBodiesInterleave(t *testing.T) {
	m, srv := serveMixed(t)
	conn, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	swap := func(a, b int) error {
		t.Helper()
		in, out := pair{A: a, B: b}, pair{}
		err := conn.Call("Mixed.Swap", &in, &out)
		if err == nil && out != (pair{A: b, B: a}) {
			t.Errorf("Swap(%d, %d) = %+v", a, b, out)
		}
		return err
	}
	for round := 0; round < 3; round++ {
		// First use of a gob type on the connection, before pair's.
		if err := conn.Call("Mixed.Nope", &struct{ X string }{"x"}, &pair{}); !Matches(err, errors.New("rpc: can't find method Mixed.Nope")) {
			t.Fatalf("unknown method: %v", err)
		}
		if err := swap(1, 2); err != nil {
			t.Fatal(err)
		}
		in, out := blob{Data: []byte("abc")}, blob{}
		if err := conn.Call("Mixed.Reverse", &in, &out); err != nil || string(out.Data) != "cba" {
			t.Fatalf("Reverse: %q, %v", out.Data, err)
		}
		if err := swap(-1, 0); !Matches(err, errSentinel) {
			t.Fatalf("failing Swap: %v", err)
		}
		if err := swap(3, 4); err != nil {
			t.Fatalf("Swap after a failed call: %v", err)
		}
	}
	if st := srv.Stats(); st.Calls != 12 || st.Rejected != 3 || m.undecoded.Load() != 0 {
		t.Errorf("stats %+v, undecoded %d; want 12 calls, 3 rejected, 0 undecoded", st, m.undecoded.Load())
	}
	if st := srv.Stats(); st.BytesIn == 0 || st.BytesOut == 0 {
		t.Errorf("no bytes counted: %+v", st)
	}
}

// A gob body the server cannot decode is answered with an error and
// then a hang-up, since the gob stream may be out of step: here a gob
// body where the method takes a layout.
func TestUndecodableBodyIsAnsweredThenHungUp(t *testing.T) {
	m, srv := serveMixed(t)
	conn, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var se ServerError
	if err := conn.Call("Mixed.Reverse", &pair{A: 1}, &blob{}); !errors.As(err, &se) {
		t.Fatalf("mismatched body: %v, want a ServerError", err)
	}
	err = conn.Call("Mixed.Swap", &pair{}, &pair{})
	if err == nil || errors.As(err, &se) {
		t.Fatalf("call after the hang-up: %v, want a transport error", err)
	}
	if st := srv.Stats(); st.Calls != 0 || st.Rejected != 1 || m.undecoded.Load() != 0 {
		t.Errorf("stats %+v, undecoded %d; want no call, 1 rejected", st, m.undecoded.Load())
	}
}

// shortBlob lays out a blob whose length byte claims more than follows.
type shortBlob struct{}

func (shortBlob) AppendWire(dst []byte) []byte { return append(dst, 5, 'a') }
func (shortBlob) ReadWire([]byte) error        { return errors.New("shortBlob: write-only") }

// A layout the method's ReadWire refuses is answered with ReadWire's
// reason and the connection lives: a layout touches no stream state.
// A typed handler answers the refusal and the call after it with the
// bytes of a reflected one.
func TestRefusedLayoutIsAnsweredAndKept(t *testing.T) {
	m, reflected := serveMixed(t)
	typed, err := ServeHandlers("127.0.0.1:0", map[string]Handler{"Mixed.Reverse": Method(m.Reverse)})
	if err != nil {
		t.Fatal(err)
	}
	defer typed.Close()
	for _, srv := range []*Server{reflected, typed} {
		conn, err := Dial(srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var se ServerError
		err = conn.Call("Mixed.Reverse", shortBlob{}, &blob{})
		if !errors.As(err, &se) || string(se) != "rpc: undecodable arguments for Mixed.Reverse: blob: bad length" {
			t.Fatalf("refused layout: %v, want a ServerError with ReadWire's reason", err)
		}
		if st := srv.Stats(); st.Calls != 0 || st.Rejected != 1 {
			t.Errorf("stats after the refusal %+v, want no call and 1 rejected", st)
		}
		in, out := blob{Data: []byte("abc")}, blob{}
		if err := conn.Call("Mixed.Reverse", &in, &out); err != nil || string(out.Data) != "cba" {
			t.Fatalf("call on the same Conn after the refusal: %q, %v", out.Data, err)
		}
		if st := srv.Stats(); st.Calls != 1 || st.Rejected != 1 || m.undecoded.Load() != 0 {
			t.Errorf("stats %+v, undecoded %d; want 1 call, 1 rejected", st, m.undecoded.Load())
		}
	}
	sameReplies(t, rawFrames(t,
		func(l *link) error { return l.appendFrame(1, "Mixed.Reverse", "", shortBlob{}) },
		reverseCall(2, "abc"),
	), reflected, typed)
}

// A connection cut mid-call surfaces as what both planes retry on: not
// a ServerError (apex redials on anything else), not a match for any
// sentinel (serve's agent drops the connection on anything else), and
// the Conn is shut down rather than left half-read.
func TestProxyDisconnectIsATransportError(t *testing.T) {
	svc, srv := serve(t)
	defer close(svc.release)
	proxy, err := faultrpc.NewFaultProxy(srv.Addr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	check := func(name string, conn *Conn, err error) {
		t.Helper()
		var se ServerError
		var de *DeadlineError
		if err == nil || errors.As(err, &se) || errors.As(err, &de) || Matches(err, errSentinel) {
			t.Errorf("%s: %v, want a plain transport error", name, err)
		}
		in, out := 1, 0
		if err := conn.Call("Svc.Echo", &in, &out); !errors.Is(err, ErrShutdown) {
			t.Errorf("%s: next call on the cut connection: %v, want ErrShutdown", name, err)
		}
	}

	// The request is written, the connection dies before any reply.
	proxy.SetRule(faultrpc.FaultRule{DropProb: 1})
	conn, err := Dial(proxy.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in, out := 1, 0
	check("dropped", conn, conn.Call("Svc.Echo", &in, &out))

	// The call is parked on its handler when the network partitions.
	proxy.SetRule(faultrpc.FaultRule{})
	conn, err = Dial(proxy.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan error, 1)
	go func() {
		in, out := 1, 0
		done <- conn.Call("Svc.Block", &in, &out)
	}()
	for srv.Stats().Calls == 0 {
		time.Sleep(time.Millisecond)
	}
	proxy.Partition(true)
	check("partitioned", conn, <-done)
}

// rawFrames is one connection's worth of client bytes: the preamble and
// the given calls, framed by the code under test.
func rawFrames(t testing.TB, calls ...func(l *link) error) []byte {
	t.Helper()
	l := newLink(nil)
	for _, call := range calls {
		if err := call(l); err != nil {
			t.Fatal(err)
		}
	}
	return l.wbuf
}

func reverseCall(seq uint64, data string) func(*link) error {
	return func(l *link) error {
		return l.appendFrame(seq, "Mixed.Reverse", "", &blob{Data: []byte(data)})
	}
}

// exchange writes data to a fresh connection, half-closes it, and
// returns everything the server sent before it closed its side.
func exchange(t testing.TB, addr string, data []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// A failed write means the server already hung up on an earlier
	// byte; what it sent before that is still there to read.
	if _, err := conn.Write(data); err == nil {
		conn.(*net.TCPConn).CloseWrite()
	}
	got, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server kept the connection open after %d bytes and a half-close", len(data))
	}
	return got // a reset instead of a FIN is still a closed connection
}

// A valid request cut at every byte offset reaches no handler and gets
// no answer: the server never replies to a frame it did not finish
// reading.
func TestTruncatedRequestReachesNoHandler(t *testing.T) {
	m, srv := serveMixed(t)
	whole := rawFrames(t, reverseCall(1, "abc"))
	if got := exchange(t, srv.Addr(), whole); len(got) == 0 {
		t.Fatal("the whole frame got no reply; the table below would prove nothing")
	}
	for cut := 0; cut < len(whole); cut++ {
		if got := exchange(t, srv.Addr(), whole[:cut]); len(got) != 0 {
			t.Errorf("cut at %d of %d: server replied %x", cut, len(whole), got)
		}
	}
	if st := srv.Stats(); st.Calls != 1 || m.undecoded.Load() != 0 {
		t.Errorf("stats %+v, undecoded %d; want the one whole call", st, m.undecoded.Load())
	}
}

// A valid reply cut at every byte offset fails the call and leaves the
// caller's reply value untouched.
func TestTruncatedReplyYieldsNothing(t *testing.T) {
	l := newLink(nil)
	if err := l.appendFrame(1, "", "", &blob{Data: []byte("cba")}); err != nil {
		t.Fatal(err)
	}
	whole := l.wbuf
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cuts := make(chan int)
	go func() {
		// A server that answers whatever it is sent with a cut reply.
		for cut := range cuts {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Read(make([]byte, 512))
			conn.Write(whole[:cut])
			conn.Close()
		}
	}()
	defer close(cuts)
	for cut := 0; cut <= len(whole); cut++ {
		cuts <- cut
		conn, err := Dial(ln.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		out := blob{}
		err = conn.Call("Mixed.Reverse", &blob{Data: []byte("abc")}, &out)
		conn.Close()
		switch {
		case cut == len(whole):
			if err != nil || string(out.Data) != "cba" {
				t.Errorf("whole reply: %q, %v", out.Data, err)
			}
		case err == nil || out.decoded || out.Data != nil:
			t.Errorf("cut at %d of %d: call returned %v with reply %+v", cut, len(whole), err, out)
		}
	}
}

// Frames the transport refuses outright, each on its own connection:
// the server sends nothing, closes, and counts one rejection.
func TestHostileFramesAreRefused(t *testing.T) {
	m, srv := serveMixed(t)
	good := rawFrames(t, reverseCall(1, "abc"))
	frame := good[len(preamble):]
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b[len(preamble):])
		return b
	}
	cases := map[string][]byte{
		"gob peer":       []byte("\x2b\xff\x81\x03\x01\x01\x07Request\x01\xff\x82\x00\x01\x02\x01\rServiceMethod"),
		"old version":    append([]byte("GNFVRPC\x00"), frame...),
		"4 GiB length":   append([]byte(preamble), 0xff, 0xff, 0xff, 0xff),
		"over the cap":   append([]byte(preamble), 0x01, 0x00, 0x00, 0x01),
		"under the min":  append([]byte(preamble), 0x00, 0x00, 0x00, 0x0b, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"method overrun": mutate(func(b []byte) { b[12] = 0xff }),
		"error overrun":  mutate(func(b []byte) { b[13+len("Mixed.Reverse")] = 0xff }),
		"unknown kind":   mutate(func(b []byte) { b[15+len("Mixed.Reverse")] = 9 }),
	}
	for name, data := range cases {
		before := srv.Stats()
		if got := exchange(t, srv.Addr(), data); len(got) != 0 {
			t.Errorf("%s: server replied %x", name, got)
		}
		// The connection's goroutine counts before it closes, and
		// exchange returned only once it had closed.
		if after := srv.Stats(); after.Rejected != before.Rejected+1 || after.Calls != before.Calls {
			t.Errorf("%s: stats %+v -> %+v, want one more rejection and no call", name, before, after)
		}
	}
	// A bad layout inside a good frame is answered (the connection
	// would live; exchange's half-close ends it).
	got := exchange(t, srv.Addr(), mutate(func(b []byte) { b[16+len("Mixed.Reverse")] = 0x7f }))
	if len(got) == 0 {
		t.Error("bad layout: no error reply")
	}
	if m.undecoded.Load() != 0 || srv.Stats().Calls != 0 {
		t.Errorf("a handler ran: undecoded %d, stats %+v", m.undecoded.Load(), srv.Stats())
	}
}
