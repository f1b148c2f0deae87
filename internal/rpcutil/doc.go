// Package rpcutil is the RPC transport shared by the training plane
// (internal/rl/apex) and the serving control plane (internal/serve):
// length-prefixed frames over TCP, a synchronous client with a
// per-call deadline, a connection-tracking server whose Close actually
// terminates, and error matching that survives a server-side error
// crossing as its message only. The serving tick pays for it every
// control interval on every node, so a call costs what it must — one
// write and one read on each side — and nothing per call is scheduled
// or timed beyond that. A call of a typed handler allocates nothing
// of the transport's own: its messages are kept per connection (see
// "Ordering") and it is called with no reflection (see
// "Registration"). What a ReadWire hands out as fresh storage it
// allocates, as apex's push rows do.
//
// # The frame
//
// Each direction of a connection opens, once, with the eight-byte
// preamble "GNFVRPC" + version 1; a peer that opens with anything else
// (a build from before the frame, a port scanner) is disconnected
// before a byte of it is parsed, so a mixed pair fails at its first
// call instead of misreading each other. After the preamble every
// message, request or reply, is one frame, big-endian:
//
//	u32  length of the rest of the frame, 12 to 16 MiB
//	u64  sequence number: the client's call count, echoed by the reply
//	u8   method length | method ("Name.Method"; empty in replies)
//	u16  error length  | error (a reply's ServerError; empty = success)
//	u8   body kind: 0 none, 1 layout, 2 gob
//	...  body, to the end of the frame
//
// Every length is checked against the bytes present before it is
// used. A declared length outside its range is refused before any
// buffer is sized by it, and one inside it sizes nothing ahead of its
// bytes: the read buffer grows as they arrive. A kind past 2, or a
// body behind kind 0, is malformed. On a malformed frame the server
// closes the connection without answering and the client fails the
// call: the byte stream has no resynchronisation point, and a peer
// that produced one bad frame is not one to keep reading.
//
// # Bodies
//
// A message type that implements Wire crosses as its own layout
// (kind 1): AppendWire writes it, ReadWire checks and reads it, and
// this package never looks inside. Both planes' messages do:
// internal/serve's four as fixed big-endian layouts (serve/rpc.go),
// because a fleet sends them every tick, and internal/rl/apex's six as
// fixed little-endian ones (apex/rpc.go), a push being rows of the
// replay snapshot's layout. Any other type crosses as one value on a
// gob encoder/decoder pair the connection keeps for its lifetime
// (kind 2), so a type's descriptor crosses once, as under net/rpc.
// Only Serve registers such a type, and its one user outside tests is
// the benchmark's Echo.Ping probe: kind 2 goes with Serve when that
// probe moves to a layout. Which path a value takes is a
// property of its type, not an option, and the receiver holds the
// sender to it: a body whose kind is not the one the receiving type
// would have been sent as is undecodable.
//
// An undecodable request body is answered with an error,
// "rpc: undecodable arguments for <method>: " and the decoder's
// reason. After a refused layout the connection lives: ReadWire read
// bytes and touched no state. After a refused gob body the server
// hangs up, because the decoder may be out of step with the peer's
// encoder. A call to an unknown method is answered with an error and
// the connection lives: the server reads the body into nothing,
// descriptors included. A handler's error crosses in the error field
// with no body at all, so it never touches the stream.
//
// # Registration
//
// A Server answers a table of Handlers keyed by method name
// (ServeHandlers). Method makes a Handler of a func(*A, *R) error
// whose A and R both implement Wire; the type constraint is what
// keeps gob off both planes, which register only this way. Its
// closures make, zero and call the typed messages, so a frame reaches
// the func with no reflection. Serve is the adapter for a receiver:
// it finds the receiver's exported methods of that shape by reflection
// and calls them through reflect.Value.Call, which allocates per call,
// and it is the only way to serve a message without a layout.
//
// # Ordering
//
// A connection carries one call at a time. Conn.Call writes the
// request and reads the reply on the calling goroutine; goroutines
// sharing a Conn take turns under its mutex rather than being
// multiplexed (both planes' callers are single-goroutine by contract,
// so nothing lost concurrency to this). The server runs one goroutine
// per connection, which reads a frame, calls the handler inline and
// writes the reply: a connection's calls are answered in order, and a
// handler that blocks holds up only its own connection. Handlers of
// different connections run concurrently and must be goroutine-safe.
//
// Each connection keeps one argument and one reply value per method,
// made at the method's first call, and hands them to every call of it.
// A laid-out argument is overwritten by ReadWire; a gob one is zeroed
// before it is decoded. The reply is zeroed once it is encoded, so
// every handler starts from an empty reply, and no connection holds
// what a handler pointed its reply at between calls. Both values are
// valid until the handler returns: a handler copies what it keeps.
// What ReadWire hands out as fresh storage is the handler's, as apex's
// push rows are the replay's.
//
// # Server lifecycle
//
// A connection's goroutine blocks reading the next request until its
// client hangs up, so a naive server's Close would wait on peers that
// never disconnect. A Server tracks every accepted connection; Close
// closes them all, then the listener, then waits for handlers to
// drain. Safe to call concurrently and more than once. Stats counts
// calls, refused input and bytes each way, for scraping.
//
// # Call deadlines
//
// Conn.Timeout becomes the connection's read/write deadline for the
// whole round trip. A call that exceeds it returns a retryable
// *DeadlineError and the connection is torn down — its reply may
// still arrive, and would answer the next call. Any other transport
// failure tears the connection down too; later calls return
// ErrShutdown at once and callers that want to keep going redial.
// Conn.Close from another goroutine fails a parked call the same way.
//
// # Error matching
//
// A server-side error reaches remote callers as a ServerError holding
// only the message string, on a connection that stays usable. Matches
// compares by errors.Is in-process and by message prefix across the
// wire — which is why sentinel error strings passed to it must stay
// stable.
package rpcutil
