package rpcutil

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Wire is implemented by messages with a layout of their own; every
// other message crosses as gob (package comment, "Bodies").
type Wire interface {
	// AppendWire appends the message's layout to dst.
	AppendWire(dst []byte) []byte
	// ReadWire overwrites the message from body, which must be exactly
	// one layout: a short, overlong or out-of-range body is an error.
	// body is the connection's read buffer, so nothing may alias it
	// after ReadWire returns.
	ReadWire(body []byte) error
}

// ServerError is a handler's error as remote callers see it: the
// message only. The connection that delivered it is still good.
type ServerError string

// Error implements error.
func (e ServerError) Error() string { return string(e) }

// ErrShutdown is returned by calls on a Conn that was closed — by
// Close, or by an earlier call's transport failure or deadline.
var ErrShutdown = errors.New("rpc: connection is shut down")

// Matches reports whether err is target, either directly (in-process)
// or as the ServerError delivered to remote callers (matched by
// message prefix).
func Matches(err, target error) bool {
	if errors.Is(err, target) {
		return true
	}
	var se ServerError
	if errors.As(err, &se) {
		return strings.HasPrefix(string(se), target.Error())
	}
	return false
}

// DeadlineError is the retryable failure of an RPC call that exceeded
// its deadline; the underlying connection has been torn down.
type DeadlineError struct {
	Method  string
	Timeout time.Duration
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("rpc: %s exceeded %v deadline", e.Method, e.Timeout)
}

// The frame (package comment, "The frame").
const (
	// preamble opens each direction of a connection: magic and version.
	preamble = "GNFVRPC\x01"
	// maxFrame caps a frame's declared length. The largest honest
	// frames, the training plane's pushes and parameter pulls, are well
	// under a megabyte.
	maxFrame = 16 << 20
	// minFrame is a frame with empty method, error and body: seq,
	// method length, error length, body kind.
	minFrame = 8 + 1 + 2 + 1

	kindNone = 0 // no body: error replies
	kindWire = 1 // the message's own layout
	kindGob  = 2 // one value on the connection's gob stream
)

// errMalformed marks bytes that are not this protocol: the connection
// that carried them is closed.
var errMalformed = errors.New("rpc: malformed frame")

// frame is one parsed message; its slices alias the link's read
// buffer until the next readFrame.
type frame struct {
	seq    uint64
	method []byte
	err    []byte
	kind   byte
	body   []byte
	size   int // bytes consumed from the connection
}

// link is one end of a connection: the framer and the gob stream pair
// that carries bodies without a layout. Both ends run the same code;
// neither is goroutine-safe.
type link struct {
	conn    net.Conn
	br      *bufio.Reader
	greeted bool   // peer's preamble seen
	rbuf    []byte // last frame read
	wbuf    []byte // frames (and, first, our preamble) not yet written
	enc     *gob.Encoder
	dec     *gob.Decoder
	body    bytes.Reader // what dec reads: one frame's body at a time
}

func newLink(conn net.Conn) *link {
	return &link{conn: conn, br: bufio.NewReader(conn), wbuf: append([]byte(nil), preamble...)}
}

// Write appends to the pending frame: the gob encoder's sink.
func (l *link) Write(p []byte) (int, error) {
	l.wbuf = append(l.wbuf, p...)
	return len(p), nil
}

// peek returns the next n unread bytes; a stream that ends inside them
// is io.ErrUnexpectedEOF, one that ends before them io.EOF.
func (l *link) peek(n int) ([]byte, error) {
	b, err := l.br.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

// readFrame reads and parses the next frame, after the peer's
// preamble if this is the first. Every length is checked before use.
func (l *link) readFrame() (frame, error) {
	var f frame
	if !l.greeted {
		b, err := l.peek(len(preamble))
		if err != nil {
			return f, err
		}
		if string(b) != preamble {
			return f, fmt.Errorf("%w: peer does not speak rpcutil version %d", errMalformed, preamble[len(preamble)-1])
		}
		l.br.Discard(len(preamble))
		l.greeted = true
		f.size = len(preamble)
	}
	b, err := l.peek(4)
	if err != nil {
		return f, err
	}
	n := int(binary.BigEndian.Uint32(b))
	if n < minFrame || n > maxFrame {
		return f, fmt.Errorf("%w: length %d outside [%d, %d]", errMalformed, n, minFrame, maxFrame)
	}
	l.br.Discard(4)
	if b, err = l.readBody(n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return f, err
	}
	f.size += 4 + n
	f.seq = binary.BigEndian.Uint64(b)
	methodLen := int(b[8])
	b = b[9:]
	if len(b) < methodLen+3 {
		return f, fmt.Errorf("%w: method overruns frame", errMalformed)
	}
	f.method, b = b[:methodLen], b[methodLen:]
	errLen := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < errLen+1 {
		return f, fmt.Errorf("%w: error overruns frame", errMalformed)
	}
	f.err, b = b[:errLen], b[errLen:]
	f.kind, f.body = b[0], b[1:]
	if f.kind > kindGob || f.kind == kindNone && len(f.body) > 0 {
		return f, fmt.Errorf("%w: body kind %d with %d bytes", errMalformed, f.kind, len(f.body))
	}
	return f, nil
}

// growChunk is the least readBody grows rbuf by: the bufio.Reader's
// default size, what one read can bring.
const growChunk = 4096

// readBody reads the next n bytes into rbuf. A buffer that already
// fits them is read into as it is; otherwise it grows only as bytes
// arrive, each time by at most what it holds or growChunk, so a
// declared length the peer never sends sizes nothing.
func (l *link) readBody(n int) ([]byte, error) {
	b := l.rbuf[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), growChunk)))
			l.rbuf = b
		}
		m, err := l.br.Read(b[len(b):min(n, cap(b))])
		b = b[:len(b)+m]
		if err != nil && len(b) < n {
			return nil, err
		}
	}
	return b, nil
}

// appendFrame queues one frame carrying v (nil: no body). After an
// error the gob stream may be ahead of the peer's, so the connection
// must not carry another frame.
func (l *link) appendFrame(seq uint64, method, errMsg string, v any) error {
	if len(method) > math.MaxUint8 {
		return fmt.Errorf("rpc: method name of %d bytes", len(method))
	}
	errMsg = errMsg[:min(len(errMsg), math.MaxUint16)]
	start := len(l.wbuf)
	b := append(l.wbuf, 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = append(append(b, byte(len(method))), method...)
	b = append(binary.BigEndian.AppendUint16(b, uint16(len(errMsg))), errMsg...)
	switch w := v.(type) {
	case nil:
		b = append(b, kindNone)
	case Wire:
		b = w.AppendWire(append(b, kindWire))
	default:
		l.wbuf = append(b, kindGob)
		if l.enc == nil {
			l.enc = gob.NewEncoder(l)
		}
		if err := l.enc.Encode(v); err != nil {
			l.wbuf = l.wbuf[:start]
			return err
		}
		b = l.wbuf
	}
	n := len(b) - start - 4
	if n > maxFrame {
		l.wbuf = b[:start]
		return fmt.Errorf("rpc: %T makes a %d-byte frame, over the %d cap", v, n, maxFrame)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	l.wbuf = b
	return nil
}

// flush writes the queued frames and reports how many bytes it tried.
func (l *link) flush() (int, error) {
	n := len(l.wbuf)
	_, err := l.conn.Write(l.wbuf)
	l.wbuf = l.wbuf[:0]
	return n, err
}

// decodeBody fills v from a frame's body. The body's kind must be the
// one v would have been sent as. A nil v discards the body, which for
// gob still reads it: type descriptors cross once per stream, so a
// skipped message would leave the decoder behind the peer's encoder.
func (l *link) decodeBody(kind byte, body []byte, v any) error {
	w, laidOut := v.(Wire)
	switch {
	case kind == kindWire && laidOut:
		return w.ReadWire(body)
	case kind == kindGob && !laidOut:
		l.body.Reset(body)
		if l.dec == nil {
			l.dec = gob.NewDecoder(&l.body)
		}
		if err := l.dec.Decode(v); err != nil {
			return err
		}
		if l.body.Len() > 0 {
			return fmt.Errorf("%w: %d bytes after the gob value", errMalformed, l.body.Len())
		}
		return nil
	case v == nil:
		return nil
	}
	return fmt.Errorf("%w: body kind %d for %T", errMalformed, kind, v)
}

// Handler is one method a Server answers: typed closures that make the
// method's argument and reply, zero them, and call it. Method builds
// one for a func over Wire messages; Serve builds them by reflection.
type Handler struct {
	messages  func() (args, reply any)
	zeroArgs  func(args any) // nil when ReadWire overwrites the argument whole
	zeroReply func(reply any)
	call      func(args, reply any) error
}

// Method is fn as a Handler. Both of fn's messages have layouts, so
// no call of it ever crosses as gob, and a call reaches fn with no
// reflection and no allocation of the server's own.
func Method[A, R any, PA interface {
	*A
	Wire
}, PR interface {
	*R
	Wire
}](fn func(PA, PR) error) Handler {
	return Handler{
		messages:  func() (any, any) { return PA(new(A)), PR(new(R)) },
		zeroReply: func(reply any) { *reply.(PR) = *new(R) },
		call:      func(args, reply any) error { return fn(args.(PA), reply.(PR)) },
	}
}

// Messages makes a new argument and reply of h's method: what a
// connection keeps for it from the method's first call.
func (h Handler) Messages() (args, reply any) { return h.messages() }

var (
	errorType = reflect.TypeOf((*error)(nil)).Elem()
	wireType  = reflect.TypeOf((*Wire)(nil)).Elem()
)

// handlersOf finds rcvr's exported methods of the form
// func(*A, *R) error, keyed "name.Method". Their messages need no
// layout: an argument without one is zeroed before each gob decode.
func handlersOf(name string, rcvr any) (map[string]Handler, error) {
	handlers := make(map[string]Handler)
	rv := reflect.ValueOf(rcvr)
	zero := func(v any) { reflect.ValueOf(v).Elem().SetZero() }
	for i, rt := 0, rv.Type(); i < rt.NumMethod(); i++ {
		m := rt.Method(i)
		t := m.Type
		if t.NumIn() != 3 || t.In(1).Kind() != reflect.Pointer || t.In(2).Kind() != reflect.Pointer ||
			t.NumOut() != 1 || t.Out(0) != errorType {
			continue
		}
		args, reply := t.In(1).Elem(), t.In(2).Elem()
		h := Handler{
			messages:  func() (any, any) { return reflect.New(args).Interface(), reflect.New(reply).Interface() },
			zeroReply: zero,
			call: func(a, r any) error {
				err, _ := m.Func.Call([]reflect.Value{rv, reflect.ValueOf(a), reflect.ValueOf(r)})[0].Interface().(error)
				return err
			},
		}
		if !t.In(1).Implements(wireType) {
			h.zeroArgs = zero
		}
		handlers[name+"."+m.Name] = h
	}
	if len(handlers) == 0 {
		return nil, fmt.Errorf("rpc: %T has no exported func(*A, *R) error methods", rcvr)
	}
	return handlers, nil
}

// registered is a Handler and the index of its kept values on each
// connection.
type registered struct {
	Handler
	index int
}

// Server answers a table of methods over TCP. It tracks its open
// connections so Close can tear them down instead of waiting for
// every client to hang up.
type Server struct {
	listener net.Listener
	handlers map[string]registered
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool

	calls, rejected, bytesIn, bytesOut atomic.Uint64
}

// ServerStats is a Server's traffic so far, for scraping as counters.
type ServerStats struct {
	// Calls counts handler invocations.
	Calls uint64
	// Rejected counts what was refused before reaching a handler: a
	// wrong preamble, a malformed or oversized frame, an unknown
	// method, an undecodable body.
	Rejected uint64
	// BytesIn and BytesOut count whole frames (and preambles) read
	// and written.
	BytesIn, BytesOut uint64
}

// Serve registers rcvr's methods under name by reflection and starts
// serving them on addr, as ServeHandlers does. It is the one way to
// serve messages without a layout, which cross as gob.
func Serve(name string, rcvr any, addr string) (*Server, error) {
	handlers, err := handlersOf(name, rcvr)
	if err != nil {
		return nil, err
	}
	return ServeHandlers(addr, handlers)
}

// ServeHandlers starts serving the methods in handlers, keyed by the
// name callers give ("Name.Method"), on addr (e.g. "127.0.0.1:0" for
// an ephemeral port). It returns once listening; connections are
// served in the background until Close.
func ServeHandlers(addr string, handlers map[string]Handler) (*Server, error) {
	if len(handlers) == 0 {
		return nil, errors.New("rpc: no methods to serve")
	}
	table := make(map[string]registered, len(handlers))
	for name, h := range handlers {
		if name == "" || len(name) > math.MaxUint8 {
			return nil, fmt.Errorf("rpc: method name %q is not 1 to %d bytes", name, math.MaxUint8)
		}
		table[name] = registered{Handler: h, index: len(table)}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{listener: ln, handlers: table, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
				// Uncount before closing: a peer that has read the
				// hang-up must not find itself in ConnCount.
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
		}
	}()
	return s, nil
}

// serveConn answers one connection's calls in order, each handler run
// inline, until the peer hangs up or sends something refused.
func (s *Server) serveConn(conn net.Conn) {
	l := newLink(conn)
	// One argument and one reply per method, made at its first call
	// and kept for the connection's life (package comment, "Ordering").
	kept := make([][2]any, len(s.handlers))
	for {
		f, err := l.readFrame()
		s.bytesIn.Add(uint64(f.size))
		if err != nil {
			if errors.Is(err, errMalformed) {
				s.rejected.Add(1)
			}
			return
		}
		var (
			reply  any
			errMsg string
			hangUp bool
			called bool
		)
		h, ok := s.handlers[string(f.method)]
		var k *[2]any
		var decodeErr error
		if ok {
			k = &kept[h.index]
			if k[0] == nil {
				k[0], k[1] = h.Messages()
			}
			// ReadWire overwrites a layout; gob leaves a field the
			// sender's zero value omits as it was.
			if h.zeroArgs != nil {
				h.zeroArgs(k[0])
			}
			decodeErr = l.decodeBody(f.kind, f.body, k[0])
		}
		switch {
		case !ok:
			s.rejected.Add(1)
			errMsg = "rpc: can't find method " + string(f.method)
			hangUp = l.decodeBody(f.kind, f.body, nil) != nil
		case decodeErr != nil:
			// A refused layout touched nothing; a refused gob body may
			// have left the stream out of step: answer, then hang up.
			s.rejected.Add(1)
			errMsg = "rpc: undecodable arguments for " + string(f.method) + ": " + decodeErr.Error()
			hangUp = f.kind == kindGob
		default:
			s.calls.Add(1)
			called = true
			if err := h.call(k[0], k[1]); err == nil {
				reply = k[1]
			} else if errMsg = err.Error(); errMsg == "" {
				errMsg = "rpc: handler failed" // an empty error field means success
			}
		}
		if err := l.appendFrame(f.seq, "", errMsg, reply); err != nil {
			hangUp = true
			// Cannot fail: no method, no body, and the error is cut to fit.
			_ = l.appendFrame(f.seq, "", "rpc: unencodable reply: "+err.Error(), nil)
		}
		if called {
			// Encoded or failed, the reply is done with: the next call's
			// handler starts from an empty one, and the connection holds
			// nothing the handler pointed it at.
			h.zeroReply(k[1])
		}
		n, err := l.flush()
		s.bytesOut.Add(uint64(n))
		if err != nil || hangUp {
			return
		}
	}
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// ConnCount reports the number of currently open client connections.
// Safe to call concurrently with serving; metrics endpoints poll it
// as a gauge.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Stats reports the traffic counters. Safe to call concurrently with
// serving.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Calls:    s.calls.Load(),
		Rejected: s.rejected.Load(),
		BytesIn:  s.bytesIn.Load(),
		BytesOut: s.bytesOut.Load(),
	}
}

// Close stops accepting connections, disconnects the remaining
// clients, and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

// Conn is a single TCP connection to a Server; once the connection
// drops its calls fail permanently and the caller must redial. Calls
// are synchronous — the calling goroutine writes the request and
// reads the reply — and concurrent callers take turns.
type Conn struct {
	// Timeout bounds each RPC round-trip; on expiry the call fails
	// with a *DeadlineError and the connection is torn down (the late
	// reply would otherwise answer the next call). Zero disables the
	// deadline. Set before issuing calls.
	Timeout time.Duration

	conn   net.Conn
	closed atomic.Bool // by Close or by a failed call; conn is closed once
	mu     sync.Mutex  // one call at a time: guards link and seq
	link   *link
	seq    uint64
}

// Dial connects to a Server with the given per-call deadline.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return &Conn{Timeout: timeout, conn: conn, link: newLink(conn)}, nil
}

// Call invokes one RPC with the per-call deadline. A timed-out call
// closes the connection and returns a retryable *DeadlineError; any
// other transport failure closes it too. A ServerError — the
// handler's own — leaves the connection in service.
func (c *Conn) Call(method string, args, reply any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrShutdown
	}
	c.seq++
	if err := c.link.appendFrame(c.seq, method, "", args); err != nil {
		return c.fail(method, err)
	}
	if c.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.Timeout))
	}
	if _, err := c.link.flush(); err != nil {
		return c.fail(method, err)
	}
	f, err := c.link.readFrame()
	if err != nil {
		return c.fail(method, err)
	}
	if f.seq != c.seq {
		return c.fail(method, fmt.Errorf("%w: reply to call %d, want %d", errMalformed, f.seq, c.seq))
	}
	if len(f.err) > 0 {
		return ServerError(f.err)
	}
	if err := c.link.decodeBody(f.kind, f.body, reply); err != nil {
		return c.fail(method, err)
	}
	return nil
}

// fail tears the connection down after a transport failure — bytes of
// a half-finished exchange may still arrive — and names the failure:
// ErrShutdown if Close caused it, a *DeadlineError if the deadline did.
func (c *Conn) fail(method string, err error) error {
	if c.closed.Swap(true) {
		return ErrShutdown
	}
	c.conn.Close()
	var ne net.Error
	if c.Timeout > 0 && errors.As(err, &ne) && ne.Timeout() {
		return &DeadlineError{Method: method, Timeout: c.Timeout}
	}
	return fmt.Errorf("rpc: %s: %w", method, err)
}

// Close releases the connection, failing a call parked on it with
// ErrShutdown. Safe to call from any goroutine, and more than once.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.conn.Close()
}
