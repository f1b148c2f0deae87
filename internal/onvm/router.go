package onvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// Route is one forwarding entry: destination prefix → egress port.
type Route struct {
	Prefix [4]byte
	Bits   int
	Port   uint16
}

// Router is a longest-prefix-match IPv4 forwarder with TTL handling,
// modelled after the simple L3 NFs shipped with OpenNetVM. Routes are
// immutable after construction, like a compiled FIB.
type Router struct {
	// routes sorted by descending prefix length for first-match LPM.
	routes      []Route
	defaultPort uint16
	hasDefault  bool
	ttlExpired  atomic.Uint64
}

// NewRouter compiles a routing table. Prefix lengths must be 0–32;
// a defaultPort < 0 means packets matching nothing are dropped.
func NewRouter(routes []Route, defaultPort int) (*Router, error) {
	cp := make([]Route, len(routes))
	copy(cp, routes)
	for i, r := range cp {
		if r.Bits < 0 || r.Bits > 32 {
			return nil, fmt.Errorf("onvm: route %d prefix length %d invalid", i, r.Bits)
		}
	}
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Bits > cp[j].Bits })
	rt := &Router{routes: cp}
	if defaultPort >= 0 {
		if defaultPort > 0xffff {
			return nil, errors.New("onvm: default port out of range")
		}
		rt.defaultPort = uint16(defaultPort)
		rt.hasDefault = true
	}
	return rt, nil
}

// Name implements Handler.
func (r *Router) Name() string { return "router" }

// Lookup performs longest-prefix match on a destination address,
// returning the egress port and whether any route matched.
func (r *Router) Lookup(dst [4]byte) (uint16, bool) {
	a := binary.BigEndian.Uint32(dst[:])
	for i := range r.routes {
		rt := &r.routes[i]
		if rt.Bits == 0 {
			return rt.Port, true
		}
		shift := uint(32 - rt.Bits)
		p := binary.BigEndian.Uint32(rt.Prefix[:])
		if a>>shift == p>>shift {
			return rt.Port, true
		}
	}
	if r.hasDefault {
		return r.defaultPort, true
	}
	return 0, false
}

// Handle implements Handler: LPM, TTL decrement with incremental
// checksum fix, egress port stamped into the mbuf.
func (r *Router) Handle(m *Mbuf) Verdict {
	if len(m.Data) < 34 {
		return VerdictDrop
	}
	ip := m.Data[14:]
	if ip[0]>>4 != 4 {
		return VerdictDrop
	}
	if ip[8] <= 1 {
		r.ttlExpired.Add(1)
		return VerdictDrop
	}
	var dst [4]byte
	copy(dst[:], ip[16:20])
	port, ok := r.Lookup(dst)
	if !ok {
		return VerdictDrop
	}
	// Decrement TTL; checksum adjust for the 16-bit word containing
	// TTL (bytes 8-9).
	oldW := binary.BigEndian.Uint16(ip[8:10])
	ip[8]--
	newW := binary.BigEndian.Uint16(ip[8:10])
	check := binary.BigEndian.Uint16(ip[10:12])
	binary.BigEndian.PutUint16(ip[10:12], checksumAdjust(check, oldW, newW))
	m.Port = port
	return VerdictForward
}

// Cost implements Handler: LPM table walk, header-only.
func (r *Router) Cost() CostModel {
	return CostModel{
		CyclesPerPacket: 180 + 4*float64(len(r.routes)),
		CyclesPerByte:   0,
		StateBytes:      int64(len(r.routes))*16 + 32768,
	}
}
