package rpcutil

import (
	"errors"
	"net"
	"testing"
	"time"
)

var errSentinel = errors.New("rpcutil test: sentinel")

// Svc is the RPC receiver the tests serve.
type Svc struct {
	release chan struct{} // Block waits on it
}

// Echo returns its argument.
func (s *Svc) Echo(in *int, out *int) error { *out = *in; return nil }

// Block parks the handler until the test releases it.
func (s *Svc) Block(in *int, out *int) error { <-s.release; return nil }

// Fail returns the sentinel wrapped in context, as servers do.
func (s *Svc) Fail(in *int, out *int) error { return errSentinel }

func serve(t *testing.T) (*Svc, *Server) {
	t.Helper()
	svc := &Svc{release: make(chan struct{})}
	srv, err := Serve("Svc", svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return svc, srv
}

// The per-call deadline fires against a handler that never answers:
// the call returns a *DeadlineError within the timeout's order of
// magnitude, and the torn-down connection fails later calls instead of
// hanging them.
func TestCallDeadlineFires(t *testing.T) {
	svc, srv := serve(t)
	defer close(svc.release) // let the parked handler finish so Close can drain
	conn, err := Dial(srv.Addr(), 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in, out := 1, 0
	if err := conn.Call("Svc.Echo", &in, &out); err != nil || out != 1 {
		t.Fatalf("echo before the deadline test: %d, %v", out, err)
	}
	start := time.Now()
	err = conn.Call("Svc.Block", &in, &out)
	var de *DeadlineError
	if !errors.As(err, &de) || de.Method != "Svc.Block" || de.Timeout != 30*time.Millisecond {
		t.Fatalf("blocked call returned %v, want a *DeadlineError for Svc.Block", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
	if err := conn.Call("Svc.Echo", &in, &out); err == nil {
		t.Error("call on a connection the deadline tore down succeeded")
	}
}

// A zero Timeout disables the deadline: the call waits for the reply.
func TestCallWithoutDeadlineWaits(t *testing.T) {
	svc, srv := serve(t)
	conn, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(svc.release)
	}()
	in, out := 1, 0
	if err := conn.Call("Svc.Block", &in, &out); err != nil {
		t.Errorf("undeadlined call failed: %v", err)
	}
}

// Dialing an address nobody listens on is an error that names the
// address — callers (apex.RemoteLearner, serve.NodeAgent) back off and
// redial on it, so it must not hang or panic.
func TestDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	conn, err := Dial(addr, time.Second)
	if err == nil {
		conn.Close()
		t.Fatal("dial to a closed port succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) {
		t.Errorf("dial error %v does not wrap the net error", err)
	}
}

// Close stops the accept loop, disconnects live clients (their next
// call fails rather than blocking on a peer that never hangs up),
// refuses new ones, and is idempotent.
func TestServeStopsOnClose(t *testing.T) {
	_, srv := serve(t)
	conn, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in, out := 3, 0
	if err := conn.Call("Svc.Echo", &in, &out); err != nil {
		t.Fatal(err)
	}
	if n := srv.ConnCount(); n != 1 {
		t.Errorf("ConnCount = %d with one client, want 1", n)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a client that never hung up")
	}
	if n := srv.ConnCount(); n != 0 {
		t.Errorf("ConnCount = %d after Close, want 0", n)
	}
	if err := conn.Call("Svc.Echo", &in, &out); err == nil {
		t.Error("call on a connection the server closed succeeded")
	}
	if c, err := Dial(srv.Addr(), time.Second); err == nil {
		c.Close()
		t.Error("dial after Close succeeded")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// A connection leaves the open set before the server closes it, so a
// refused peer that has read EOF is never still counted: a gauge read
// after the peer saw the hang-up is exact.
func TestRefusedPeerUncountedOnceHungUp(t *testing.T) {
	_, srv := serve(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GNFVRPC\x00")); err != nil { // version 0
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("server answered a wrong preamble: %d bytes, %v", n, err)
	}
	if n := srv.ConnCount(); n != 0 {
		t.Errorf("ConnCount = %d after the refused peer read EOF, want 0", n)
	}
}

// A call after the client closed its own connection errors at once.
func TestCallAfterClose(t *testing.T) {
	_, srv := serve(t)
	conn, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	in, out := 1, 0
	if err := conn.Call("Svc.Echo", &in, &out); !errors.Is(err, ErrShutdown) {
		t.Errorf("call after Close returned %v, want ErrShutdown", err)
	}
}

// Matches sees a sentinel in-process (wrapped) and across the rpc
// boundary, where net/rpc has flattened it to a message string.
func TestMatchesAcrossBoundary(t *testing.T) {
	_, srv := serve(t)
	conn, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in, out := 1, 0
	remote := conn.Call("Svc.Fail", &in, &out)
	if remote == nil || errors.Is(remote, errSentinel) {
		t.Fatalf("remote error %v should arrive flattened, not as the sentinel itself", remote)
	}
	if !Matches(remote, errSentinel) {
		t.Errorf("Matches missed the sentinel across the wire: %v", remote)
	}
	if !Matches(errors.Join(errors.New("ctx"), errSentinel), errSentinel) {
		t.Error("Matches missed a wrapped in-process sentinel")
	}
	if Matches(errors.New("something else"), errSentinel) || Matches(nil, errSentinel) {
		t.Error("Matches matched an unrelated error")
	}
}
