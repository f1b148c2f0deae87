package onvm

import (
	"errors"
	"sync/atomic"
)

// IDS is a signature-based intrusion detection NF. It scans packet
// payloads for a compiled set of byte signatures with the
// Aho-Corasick automaton (one pass over the payload regardless of
// signature count), the same structure Snort-class systems build.
// This is the paper's example of a heavyweight, payload-touching NF;
// multiple IDS instances can share alert state.
type IDS struct {
	ac       *ahoCorasick
	sigCount int
	dropHits bool
	alerts   atomic.Uint64
}

// NewIDS compiles signatures into an IDS. If dropOnMatch is true,
// matching packets are dropped (inline IPS mode); otherwise they are
// forwarded and counted (passive IDS mode).
func NewIDS(signatures [][]byte, dropOnMatch bool) (*IDS, error) {
	if len(signatures) == 0 {
		return nil, errors.New("onvm: IDS needs at least one signature")
	}
	for _, s := range signatures {
		if len(s) == 0 {
			return nil, errors.New("onvm: empty IDS signature")
		}
	}
	return &IDS{ac: newAhoCorasick(signatures), sigCount: len(signatures), dropHits: dropOnMatch}, nil
}

// Name implements Handler.
func (d *IDS) Name() string { return "ids" }

// Handle implements Handler: scan the L4 payload.
func (d *IDS) Handle(m *Mbuf) Verdict {
	payload := l4Payload(m.Data)
	if payload == nil {
		return VerdictForward // nothing to scan
	}
	if d.ac.matchesAny(payload) {
		d.alerts.Add(1)
		if d.dropHits {
			return VerdictDrop
		}
	}
	return VerdictForward
}

// Cost implements Handler: per-byte automaton traversal dominates.
func (d *IDS) Cost() CostModel {
	return CostModel{
		CyclesPerPacket: 250,
		CyclesPerByte:   2.0,
		StateBytes:      int64(len(d.ac.nodes))*1088 + 65536,
	}
}

// l4Payload returns the application payload of an IPv4/UDP|TCP frame
// (nil when absent or malformed).
func l4Payload(frame []byte) []byte {
	if len(frame) < 34 {
		return nil
	}
	ip := frame[14:]
	if ip[0]>>4 != 4 {
		return nil
	}
	ihl := int(ip[0]&0x0f) * 4
	var l4len int
	switch ip[9] {
	case 17:
		l4len = 8
	case 6:
		if len(ip) < ihl+13 {
			return nil
		}
		l4len = int(ip[ihl+12]>>4) * 4
	default:
		return nil
	}
	start := 14 + ihl + l4len
	end := len(frame) - 4 // exclude FCS
	if start >= end {
		return nil
	}
	return frame[start:end]
}

// ahoCorasick is a byte-level Aho-Corasick automaton.
type ahoCorasick struct {
	nodes []acNode
}

type acNode struct {
	next     [256]int32 // goto function with failure links compiled in
	terminal bool
}

// newAhoCorasick builds the automaton with the classic BFS failure-
// link construction, then flattens failures into the goto table so
// matching is a single table walk per byte.
func newAhoCorasick(patterns [][]byte) *ahoCorasick {
	ac := &ahoCorasick{nodes: make([]acNode, 1, 64)}
	// Trie.
	trieNext := []map[byte]int32{{}}
	for _, p := range patterns {
		cur := int32(0)
		for _, b := range p {
			nxt, ok := trieNext[cur][b]
			if !ok {
				ac.nodes = append(ac.nodes, acNode{})
				trieNext = append(trieNext, map[byte]int32{})
				nxt = int32(len(ac.nodes) - 1)
				trieNext[cur][b] = nxt
			}
			cur = nxt
		}
		ac.nodes[cur].terminal = true
	}
	// BFS failure links, flattened.
	fail := make([]int32, len(ac.nodes))
	queue := make([]int32, 0, len(ac.nodes))
	for b := 0; b < 256; b++ {
		if nxt, ok := trieNext[0][byte(b)]; ok {
			ac.nodes[0].next[b] = nxt
			queue = append(queue, nxt)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if ac.nodes[fail[u]].terminal {
			ac.nodes[u].terminal = true
		}
		for b := 0; b < 256; b++ {
			if v, ok := trieNext[u][byte(b)]; ok {
				fail[v] = ac.nodes[fail[u]].next[b]
				ac.nodes[u].next[b] = v
				queue = append(queue, v)
			} else {
				ac.nodes[u].next[b] = ac.nodes[fail[u]].next[b]
			}
		}
	}
	return ac
}

// matchesAny reports whether any pattern occurs in data.
func (ac *ahoCorasick) matchesAny(data []byte) bool {
	state := int32(0)
	for _, b := range data {
		state = ac.nodes[state].next[b]
		if ac.nodes[state].terminal {
			return true
		}
	}
	return false
}
