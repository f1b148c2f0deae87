package onvm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"greennfv/internal/traffic"
)

// FirewallAction is a rule's disposition.
type FirewallAction int

// Firewall rule actions.
const (
	// FirewallAccept forwards matching packets.
	FirewallAccept FirewallAction = iota
	// FirewallDeny drops matching packets.
	FirewallDeny
)

// FirewallRule matches packets on prefixes and port ranges; zero
// fields are wildcards.
type FirewallRule struct {
	// SrcPrefix and SrcPrefixLen match the source address (len 0 = any).
	SrcPrefix    [4]byte
	SrcPrefixLen int
	// DstPrefix and DstPrefixLen match the destination address.
	DstPrefix    [4]byte
	DstPrefixLen int
	// SrcPortLo/Hi and DstPortLo/Hi bound ports (0,0 = any).
	SrcPortLo, SrcPortHi uint16
	DstPortLo, DstPortHi uint16
	// Proto matches the L4 protocol (0 = any).
	Proto traffic.Proto
	// Action applies on match.
	Action FirewallAction
}

func prefixMatch(addr, prefix [4]byte, bits int) bool {
	if bits <= 0 {
		return true
	}
	if bits > 32 {
		bits = 32
	}
	a := binary.BigEndian.Uint32(addr[:])
	p := binary.BigEndian.Uint32(prefix[:])
	shift := uint(32 - bits)
	return a>>shift == p>>shift
}

func portMatch(port, lo, hi uint16) bool {
	if lo == 0 && hi == 0 {
		return true
	}
	return port >= lo && port <= hi
}

// Matches reports whether a five-tuple satisfies the rule.
func (r *FirewallRule) Matches(ft traffic.FiveTuple) bool {
	if r.Proto != 0 && r.Proto != ft.Proto {
		return false
	}
	if !prefixMatch(ft.SrcIP, r.SrcPrefix, r.SrcPrefixLen) {
		return false
	}
	if !prefixMatch(ft.DstIP, r.DstPrefix, r.DstPrefixLen) {
		return false
	}
	return portMatch(ft.SrcPort, r.SrcPortLo, r.SrcPortHi) &&
		portMatch(ft.DstPort, r.DstPortLo, r.DstPortHi)
}

// Firewall is a first-match rule-list packet filter, one of the
// paper's "lightweight" NF examples. Unmatched packets follow the
// default action.
type Firewall struct {
	rules     []FirewallRule
	defaultOK bool
	denied    atomic.Uint64
}

// NewFirewall builds a firewall; defaultAccept selects the verdict
// for packets matching no rule.
func NewFirewall(rules []FirewallRule, defaultAccept bool) *Firewall {
	cp := make([]FirewallRule, len(rules))
	copy(cp, rules)
	return &Firewall{rules: cp, defaultOK: defaultAccept}
}

// Name implements Handler.
func (f *Firewall) Name() string { return "firewall" }

// Handle implements Handler.
func (f *Firewall) Handle(m *Mbuf) Verdict {
	ft, err := traffic.ParseFrame(m.Data)
	if err != nil {
		f.denied.Add(1)
		return VerdictDrop // non-IPv4 is dropped by policy
	}
	for i := range f.rules {
		if f.rules[i].Matches(ft) {
			if f.rules[i].Action == FirewallDeny {
				f.denied.Add(1)
				return VerdictDrop
			}
			return VerdictForward
		}
	}
	if f.defaultOK {
		return VerdictForward
	}
	f.denied.Add(1)
	return VerdictDrop
}

// Cost implements Handler: header-only work plus a small rule table.
func (f *Firewall) Cost() CostModel {
	return CostModel{
		CyclesPerPacket: 120 + 8*float64(len(f.rules)),
		CyclesPerByte:   0,
		StateBytes:      int64(len(f.rules))*32 + 4096,
	}
}

// String summarizes the firewall configuration.
func (f *Firewall) String() string {
	return fmt.Sprintf("firewall{%d rules, defaultAccept=%v}", len(f.rules), f.defaultOK)
}
