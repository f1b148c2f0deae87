package nn

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// The parameter frame is the one encoding of a network's parameters:
// the Ape-X broadcast (one frame per parameter version, shared by every
// puller), the saved policy file and each of the four networks of a
// training state. doc.go ("Parameter frame") has the layout byte by
// byte. It carries parameters for a network the receiver already has —
// the header exists to be checked against that network, not to build
// one.

// paramMagic opens every parameter frame.
const paramMagic = "GNFVPRM1"

const (
	frameHeaderLen = len(paramMagic) + 4 // magic, layer count
	layerHeaderLen = 3 * 4               // In, Out, Act
)

// paramFrameLen is the exact length of this network's frame.
func (n *Network) paramFrameLen() int {
	return frameHeaderLen + layerHeaderLen*len(n.layers) + 8*n.paramCount()
}

// MLPParams is the parameter count of an MLP with these layer sizes
// (NewMLP's), in checked arithmetic so that sizes read from a file
// cannot wrap it short: ok is false when there is no layer, a size is
// not positive, or a frame of the count would overflow an int.
func MLPParams(sizes []int) (n int, ok bool) {
	if len(sizes) < 2 || uint64(len(sizes)-1) > math.MaxUint32 {
		return 0, false
	}
	var total uint64
	for i := 1; i < len(sizes); i++ {
		in, out := sizes[i-1], sizes[i]
		if in <= 0 || out <= 0 {
			return 0, false
		}
		// W and B: (in+1)·out parameters.
		hi, params := bits.Mul64(uint64(in)+1, uint64(out))
		var carry uint64
		if total, carry = bits.Add64(total, params, 0); hi != 0 || carry != 0 || total > math.MaxInt64/8 {
			return 0, false
		}
	}
	return int(total), true
}

// MLPFrameLen is the exact length of the frame of an MLP with these
// layer sizes, checked as MLPParams is.
func MLPFrameLen(sizes []int) (n int, ok bool) {
	params, ok := MLPParams(sizes)
	if !ok {
		return 0, false
	}
	total := uint64(frameHeaderLen) + uint64(layerHeaderLen)*uint64(len(sizes)-1) + 8*uint64(params)
	if total > math.MaxInt {
		return 0, false
	}
	return int(total), true
}

// ParamFrame encodes the float64 parameters as one parameter frame, in
// one allocation of exactly the frame's size. The caller owns the
// result; nothing in this package keeps or rewrites it.
func (n *Network) ParamFrame() []byte { return n.AppendParamFrame(nil) }

// AppendParamFrame appends the float64 parameters' frame to dst and
// returns the extended slice — the one encoder. It allocates only when
// dst lacks the room, once, doubling dst's capacity plus the frame (so
// exactly the frame for a nil dst); a caller that hands back its
// previous frame as dst[:0] re-encodes in place.
func (n *Network) AppendParamFrame(dst []byte) []byte {
	le := binary.LittleEndian
	start, size := len(dst), n.paramFrameLen()
	if cap(dst)-start < size {
		dst = append(make([]byte, 0, 2*cap(dst)+size), dst...)
	}
	dst = dst[:start+size]
	frame := dst[start:]
	copy(frame, paramMagic)
	le.PutUint32(frame[len(paramMagic):], uint32(len(n.layers)))
	at := frame[frameHeaderLen:]
	for _, l := range n.layers {
		le.PutUint32(at, uint32(l.In))
		le.PutUint32(at[4:], uint32(l.Out))
		le.PutUint32(at[8:], uint32(l.Act))
		at = at[layerHeaderLen:]
	}
	for _, l := range n.layers {
		for _, p := range [2][]float64{l.W, l.B} {
			for i, v := range p {
				le.PutUint64(at[8*i:], math.Float64bits(v))
			}
			at = at[8*len(p):]
		}
	}
	return dst
}

// ErrNotParamFrame is LoadParams' refusal of bytes that do not open
// with the frame magic.
var ErrNotParamFrame = errors.New("nn: not a parameter frame")

// CheckParams reports why LoadParams would refuse frame, bytes from a
// remote peer or a file: its magic, total length, layer count and every
// layer's sizes and activation are checked against this network, in
// that order, so every later read is in bounds and no size is ever
// computed from the bytes.
func (n *Network) CheckParams(frame []byte) error {
	if len(frame) < len(paramMagic) || string(frame[:len(paramMagic)]) != paramMagic {
		return ErrNotParamFrame
	}
	le := binary.LittleEndian
	if len(frame) != n.paramFrameLen() {
		return errors.New("nn: parameter frame length does not match this network")
	}
	if le.Uint32(frame[len(paramMagic):]) != uint32(len(n.layers)) {
		return errors.New("nn: topology mismatch")
	}
	at := frame[frameHeaderLen:]
	for _, l := range n.layers {
		if le.Uint32(at) != uint32(l.In) || le.Uint32(at[4:]) != uint32(l.Out) {
			return errors.New("nn: layer size mismatch")
		}
		if le.Uint32(at[8:]) != uint32(l.Act) {
			return errors.New("nn: layer activation mismatch")
		}
		at = at[layerHeaderLen:]
	}
	return nil
}

// LoadParams copies a frame CheckParams accepts into this network, in
// place and without allocating. On error nothing has changed.
func (n *Network) LoadParams(frame []byte) error {
	if err := n.CheckParams(frame); err != nil {
		return err
	}
	le := binary.LittleEndian
	at := frame[frameHeaderLen+layerHeaderLen*len(n.layers):]
	for _, l := range n.layers {
		for _, p := range [2][]float64{l.W, l.B} {
			for i := range p {
				p[i] = math.Float64frombits(le.Uint64(at[8*i:]))
			}
			at = at[8*len(p):]
		}
	}
	return nil
}
