package onvm

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"sync/atomic"
)

// CryptoNF encrypts (or decrypts — CTR is symmetric) packet payloads
// with AES-CTR, standing in for an IPsec-style tunneling gateway.
// It is the heaviest NF in the library: every payload byte passes
// through the cipher, matching the paper's "heavyweight" NF class.
type CryptoNF struct {
	block     cipher.Block
	processed atomic.Uint64
	// iv derives per-packet from a counter so packets are
	// independently processable.
	counter atomic.Uint64
}

// NewCryptoNF builds the NF with a 16/24/32-byte AES key.
func NewCryptoNF(key []byte) (*CryptoNF, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &CryptoNF{block: block}, nil
}

// Name implements Handler.
func (c *CryptoNF) Name() string { return "crypto" }

// Handle implements Handler: encrypt the L4 payload in place.
func (c *CryptoNF) Handle(m *Mbuf) Verdict {
	payload := l4Payload(m.Data)
	if payload == nil {
		return VerdictForward
	}
	var iv [16]byte
	binary.BigEndian.PutUint64(iv[8:], c.counter.Add(1))
	cipher.NewCTR(c.block, iv[:]).XORKeyStream(payload, payload)
	c.processed.Add(1)
	return VerdictForward
}

// Cost implements Handler: cipher setup per packet plus per-byte
// rounds (AES-NI-class constants).
func (c *CryptoNF) Cost() CostModel {
	return CostModel{
		CyclesPerPacket: 600,
		CyclesPerByte:   4.5,
		StateBytes:      8192,
	}
}

// VXLANTunnel encapsulates frames in a VXLAN header (outer UDP would
// follow in a full stack; the model prepends the 8-byte VXLAN header
// with the configured VNI) or strips it in decap mode — the
// "tunneling gateway" NF class from the paper's introduction.
type VXLANTunnel struct {
	vni    uint32
	decap  bool
	errors atomic.Uint64
}

// vxlanHeaderBytes is the VXLAN header size (RFC 7348).
const vxlanHeaderBytes = 8

// NewVXLANTunnel builds an encapsulating (decap=false) or
// decapsulating (decap=true) tunnel endpoint for a 24-bit VNI.
func NewVXLANTunnel(vni uint32, decap bool) (*VXLANTunnel, error) {
	if vni >= 1<<24 {
		return nil, errors.New("onvm: VXLAN VNI must fit in 24 bits")
	}
	return &VXLANTunnel{vni: vni, decap: decap}, nil
}

// Name implements Handler.
func (v *VXLANTunnel) Name() string {
	if v.decap {
		return "vxlan-decap"
	}
	return "vxlan-encap"
}

// Handle implements Handler.
func (v *VXLANTunnel) Handle(m *Mbuf) Verdict {
	if v.decap {
		if len(m.Data) < vxlanHeaderBytes || m.Data[0] != 0x08 {
			v.errors.Add(1)
			return VerdictDrop
		}
		gotVNI := binary.BigEndian.Uint32(m.Data[4:8]) >> 8
		if gotVNI != v.vni {
			v.errors.Add(1)
			return VerdictDrop
		}
		if err := m.Adj(vxlanHeaderBytes); err != nil {
			v.errors.Add(1)
			return VerdictDrop
		}
		return VerdictForward
	}
	hdr, err := m.Prepend(vxlanHeaderBytes)
	if err != nil {
		v.errors.Add(1)
		return VerdictDrop
	}
	hdr[0] = 0x08 // flags: VNI present
	hdr[1], hdr[2], hdr[3] = 0, 0, 0
	binary.BigEndian.PutUint32(hdr[4:8], v.vni<<8)
	return VerdictForward
}

// Cost implements Handler: constant header work.
func (v *VXLANTunnel) Cost() CostModel {
	return CostModel{CyclesPerPacket: 140, CyclesPerByte: 0, StateBytes: 2048}
}
