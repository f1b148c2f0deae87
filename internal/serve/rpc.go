package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"greennfv/internal/perfmodel"
	"greennfv/internal/rpcutil"
)

// The wire contract between node agents and the controller, in the
// idiom of the training plane's actor RPC: registration issues a
// per-node lease epoch, every report is authenticated by (node ID,
// epoch), and a server-side error, which crosses as its message only,
// is recognised by a stable sentinel prefix (rpcutil.Matches).
//
// The four messages implement rpcutil.Wire, so a tick's bytes are
// these layouts and not gob. Every field is fixed-width big-endian
// (floats as IEEE 754 bits, ints as two's-complement 64-bit), every
// count is checked against the bytes present before anything is sized
// by it, and a body with bytes left over is an error:
//
//	RegisterNodeArgs   u8 idLen | id
//	RegisterNodeReply  u64 epoch | i64 policyVersion
//	ReportArgs         u8 idLen | id | u64 epoch | f64 offeredPPS |
//	                   i64 frameBytes | f64 burstiness | u32 n | n × f64 obs
//	ReportReply        u8 hold (0, 1) | u8 source | i64 policyVersion |
//	                   u32 n | n × knobs (appendKnobs, state.go)

// DefaultCallTimeout bounds one agent RPC round-trip. Reports move a
// few hundred bytes; a second is orders of magnitude above healthy
// latency while still detecting a dead controller within one control
// interval.
const DefaultCallTimeout = 1 * time.Second

// Typed RPC failures. Keep the message strings stable: remote callers
// match them by prefix.
var (
	// ErrUnregisteredNode rejects a report whose node has no live
	// lease on this controller instance. Retryable: re-register (the
	// normal path after a controller restart or a lease expiry) and
	// repeat.
	ErrUnregisteredNode = errors.New("serve: unregistered node")
	// ErrStaleNodeEpoch rejects a report carrying an epoch that a
	// newer Register for the same node ID superseded. Fatal for that
	// agent instance: a replacement already registered, so the caller
	// must stop applying configs rather than fight it.
	ErrStaleNodeEpoch = errors.New("serve: stale node epoch")
)

// IsUnregisteredNode reports whether err is an ErrUnregisteredNode
// rejection, locally or over RPC.
func IsUnregisteredNode(err error) bool { return rpcutil.Matches(err, ErrUnregisteredNode) }

// IsStaleNodeEpoch reports whether err is an ErrStaleNodeEpoch
// rejection, locally or over RPC.
func IsStaleNodeEpoch(err error) bool { return rpcutil.Matches(err, ErrStaleNodeEpoch) }

// MaxNodeIDLen bounds a node ID: the layouts carry its length in one
// byte, and the controller keeps every ID it registers as a map key.
const MaxNodeIDLen = math.MaxUint8

// checkNodeID rejects the IDs the wire cannot carry.
func checkNodeID(id string) error {
	if id == "" {
		return errors.New("serve: empty node ID")
	}
	if len(id) > MaxNodeIDLen {
		return fmt.Errorf("serve: node ID of %d bytes, over the %d limit", len(id), MaxNodeIDLen)
	}
	return nil
}

var errBadWire = errors.New("serve: malformed message")

// appendNodeID appends u8 length | id. An ID over MaxNodeIDLen crosses
// as the empty ID, which every receiver rejects.
func appendNodeID(dst []byte, id string) []byte {
	if len(id) > MaxNodeIDLen {
		id = ""
	}
	return append(append(dst, byte(len(id))), id...)
}

// readNodeID splits u8 length | id off the front of body; id aliases
// body.
func readNodeID(body []byte) (id, rest []byte, ok bool) {
	if len(body) < 1 || len(body) < 1+int(body[0]) {
		return nil, nil, false
	}
	end := 1 + int(body[0])
	return body[1:end], body[end:], true
}

// setNodeID stores id in *dst, keeping the string already there when
// the bytes match: the server reads a connection's reports into one
// kept value, and a node reports under one ID.
func setNodeID(dst *string, id []byte) {
	if *dst != string(id) {
		*dst = string(id)
	}
}

// Config sources, reported so agents and tests can observe which rung
// of the degradation ladder produced a configuration.
const (
	// SourcePolicy marks a fresh policy decision.
	SourcePolicy = "policy"
	// SourceLastGood marks a replayed last-known-good configuration.
	SourceLastGood = "last-good"
	// SourceFallback marks a heuristic-fallback configuration.
	SourceFallback = "fallback"
	// SourceHold marks an interval where no new configuration was
	// approved and the node kept its current one.
	SourceHold = "hold"
)

// wireSources is the Source enum: a source crosses as its index here
// (0: unset), and a byte past the end is rejected.
var wireSources = [...]string{"", SourcePolicy, SourceLastGood, SourceFallback, SourceHold}

// RegisterNodeArgs announces a node agent to the controller.
type RegisterNodeArgs struct {
	NodeID string
}

// AppendWire implements rpcutil.Wire.
func (a *RegisterNodeArgs) AppendWire(dst []byte) []byte { return appendNodeID(dst, a.NodeID) }

// ReadWire implements rpcutil.Wire.
func (a *RegisterNodeArgs) ReadWire(body []byte) error {
	id, rest, ok := readNodeID(body)
	if !ok || len(rest) != 0 {
		return errBadWire
	}
	setNodeID(&a.NodeID, id)
	return nil
}

// RegisterNodeReply returns the lease epoch the node must echo in
// every report, plus the serving policy version for observability.
type RegisterNodeReply struct {
	Epoch         uint64
	PolicyVersion int
}

// AppendWire implements rpcutil.Wire.
func (r *RegisterNodeReply) AppendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.Epoch)
	return binary.BigEndian.AppendUint64(dst, uint64(int64(r.PolicyVersion)))
}

// ReadWire implements rpcutil.Wire.
func (r *RegisterNodeReply) ReadWire(body []byte) error {
	if len(body) != 16 {
		return errBadWire
	}
	r.Epoch = binary.BigEndian.Uint64(body)
	r.PolicyVersion = int(int64(binary.BigEndian.Uint64(body[8:])))
	return nil
}

// ReportArgs is one control-interval observation from a node.
type ReportArgs struct {
	// NodeID and Epoch identify the leased caller; reports without a
	// live lease fail with ErrUnregisteredNode (re-register and
	// retry), reports with a superseded epoch with ErrStaleNodeEpoch
	// (fatal).
	NodeID string
	Epoch  uint64
	// Obs is the node's state vector (env.ObserveInto layout; length
	// must match the controller's policy).
	Obs []float64
	// Traffic is the node's current offered traffic — what the
	// guardrail predicts proposals against.
	Traffic perfmodel.Traffic
}

// reportFixedLen is what follows the node ID in a ReportArgs besides
// the observations: epoch, the three traffic fields, the obs count.
const reportFixedLen = 8 + 3*8 + 4

// AppendWire implements rpcutil.Wire.
func (a *ReportArgs) AppendWire(dst []byte) []byte {
	dst = appendNodeID(dst, a.NodeID)
	dst = binary.BigEndian.AppendUint64(dst, a.Epoch)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Traffic.OfferedPPS))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(a.Traffic.FrameBytes)))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Traffic.Burstiness))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Obs)))
	for _, v := range a.Obs {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// ReadWire implements rpcutil.Wire. Obs reuses the receiver's storage,
// and is nil when the report carries none.
func (a *ReportArgs) ReadWire(body []byte) error {
	id, body, ok := readNodeID(body)
	if !ok || len(body) < reportFixedLen {
		return errBadWire
	}
	n := uint64(binary.BigEndian.Uint32(body[reportFixedLen-4:]))
	if uint64(len(body)-reportFixedLen) != n*8 {
		return errBadWire
	}
	setNodeID(&a.NodeID, id)
	a.Epoch = binary.BigEndian.Uint64(body)
	a.Traffic = perfmodel.Traffic{
		OfferedPPS: math.Float64frombits(binary.BigEndian.Uint64(body[8:])),
		FrameBytes: int(int64(binary.BigEndian.Uint64(body[16:]))),
		Burstiness: math.Float64frombits(binary.BigEndian.Uint64(body[24:])),
	}
	obs := slices.Grow(a.Obs[:0], int(n))
	for body = body[reportFixedLen:]; len(body) > 0; body = body[8:] {
		obs = append(obs, math.Float64frombits(binary.BigEndian.Uint64(body)))
	}
	if n == 0 {
		obs = nil
	}
	a.Obs = obs
	return nil
}

// ReportReply carries the controller's decision for the interval.
type ReportReply struct {
	// Hold, when true, means no proposal survived the controller's
	// guardrail this interval: the node keeps its current
	// configuration (and walks its own ladder). Config is nil.
	Hold bool
	// Config is the vetted knob configuration to apply. A reply the
	// controller fills is its stored last-known-good, shared and
	// read-only: copy it to change it, and do not ReadWire into that
	// reply, which would reuse the storage.
	Config []perfmodel.NFKnobs
	// Source is the ladder rung that produced Config (SourcePolicy or
	// SourceLastGood; the heuristic rung runs agent-side).
	Source string
	// PolicyVersion is the serving policy version, bumped by every
	// hot reload.
	PolicyVersion int
}

// AppendWire implements rpcutil.Wire. A Source outside the enum
// crosses as a byte the reader rejects.
func (r *ReportReply) AppendWire(dst []byte) []byte {
	hold := byte(0)
	if r.Hold {
		hold = 1
	}
	dst = append(dst, hold, byte(slices.Index(wireSources[:], r.Source)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(r.PolicyVersion)))
	return appendKnobs(dst, r.Config)
}

// ReadWire implements rpcutil.Wire. Config reuses the receiver's
// storage, and is nil when the reply carries none.
func (r *ReportReply) ReadWire(body []byte) error {
	if len(body) < 10 || body[0] > 1 || int(body[1]) >= len(wireSources) {
		return errBadWire
	}
	config, ok := readKnobs(r.Config[:0], body[10:])
	if !ok {
		return errBadWire
	}
	if len(config) == 0 {
		config = nil
	}
	r.Hold, r.Source, r.Config = body[0] == 1, wireSources[body[1]], config
	r.PolicyVersion = int(int64(binary.BigEndian.Uint64(body[2:])))
	return nil
}
