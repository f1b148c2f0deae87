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
	size := frameHeaderLen + layerHeaderLen*len(n.layers)
	for _, l := range n.layers {
		size += 8 * (len(l.W) + len(l.B))
	}
	return size
}

// MLPFrameLen is the exact length of the frame of an MLP with these
// layer sizes (NewMLP's sizes), computed in checked arithmetic so that
// a size read from a file cannot wrap it short. ok is false when there
// is no layer, a size is not positive, or the length overflows an int:
// a caller sizing nothing before this check allocates nothing for it.
func MLPFrameLen(sizes []int) (n int, ok bool) {
	if len(sizes) < 2 || uint64(len(sizes)-1) > math.MaxUint32 {
		return 0, false
	}
	total := uint64(frameHeaderLen) + uint64(layerHeaderLen)*uint64(len(sizes)-1)
	for i := 1; i < len(sizes); i++ {
		in, out := sizes[i-1], sizes[i]
		if in <= 0 || out <= 0 {
			return 0, false
		}
		// W and B: (in+1)·out parameters of 8 bytes each.
		hi, params := bits.Mul64(uint64(in)+1, uint64(out))
		if hi != 0 || params > math.MaxInt64/8 {
			return 0, false
		}
		var carry uint64
		if total, carry = bits.Add64(total, 8*params, 0); carry != 0 {
			return 0, false
		}
	}
	if total > math.MaxInt {
		return 0, false
	}
	return int(total), true
}

// ParamFrame encodes the float64 parameters as one parameter frame, in
// one allocation of exactly the frame's size. The caller owns the
// result; nothing in this package keeps or rewrites it.
func (n *Network) ParamFrame() []byte {
	le := binary.LittleEndian
	frame := make([]byte, n.paramFrameLen())
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
	return frame
}

// ErrNotParamFrame is LoadParams' refusal of bytes that do not open
// with the frame magic — among them the gob encoding networks were
// saved in before the frame existed, which nothing reads any more.
var ErrNotParamFrame = errors.New("nn: not a parameter frame")

// LoadParams copies a frame's parameters into this network, in place
// and without allocating. The bytes may come from a remote peer or a
// file: the magic, the total length, the layer count and every layer's
// sizes and activation are checked against this network — in that
// order, so every later read is in bounds and no size is ever computed
// from the bytes — before the first parameter is written. On error
// nothing has changed.
func (n *Network) LoadParams(frame []byte) error {
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
