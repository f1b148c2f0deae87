package onvm

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"greennfv/internal/traffic"
)

// Monitor is a passive flow-statistics NF: per-flow packet and byte
// counters, the statistical-analysis component §1 of the paper
// describes ("statistical analysis of the network flows enables
// GreenNFV to identify packet arrival rates and traffic patterns").
type Monitor struct {
	mu    sync.Mutex
	flows map[traffic.FiveTuple]*FlowCounter
	pkts  atomic.Uint64
	bytes atomic.Uint64
}

// FlowCounter accumulates per-flow totals.
type FlowCounter struct {
	Packets uint64
	Bytes   uint64
	First   float64
	Last    float64
}

// NewMonitor builds an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{flows: make(map[traffic.FiveTuple]*FlowCounter)}
}

// Name implements Handler.
func (mo *Monitor) Name() string { return "monitor" }

// Handle implements Handler.
func (mo *Monitor) Handle(m *Mbuf) Verdict {
	ft, err := traffic.ParseFrame(m.Data)
	if err != nil {
		return VerdictForward // monitors never drop
	}
	mo.pkts.Add(1)
	mo.bytes.Add(uint64(len(m.Data)))
	mo.mu.Lock()
	fc, ok := mo.flows[ft]
	if !ok {
		fc = &FlowCounter{First: m.Arrival}
		mo.flows[ft] = fc
	}
	fc.Packets++
	fc.Bytes += uint64(len(m.Data))
	fc.Last = m.Arrival
	mo.mu.Unlock()
	return VerdictForward
}

// FlowCount reports the number of distinct flows seen.
func (mo *Monitor) FlowCount() int {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	return len(mo.flows)
}

// Cost implements Handler: hash-map update per packet.
func (mo *Monitor) Cost() CostModel {
	return CostModel{CyclesPerPacket: 80, CyclesPerByte: 0, StateBytes: int64(mo.FlowCount())*96 + 8192}
}

// LoadBalancer distributes flows across backends by consistent
// five-tuple hashing, preserving per-flow ordering.
type LoadBalancer struct {
	backends int
	counts   []atomic.Uint64
}

// NewLoadBalancer builds a balancer over n backends.
func NewLoadBalancer(n int) (*LoadBalancer, error) {
	if n <= 0 {
		return nil, errors.New("onvm: load balancer needs at least one backend")
	}
	return &LoadBalancer{backends: n, counts: make([]atomic.Uint64, n)}, nil
}

// Name implements Handler.
func (lb *LoadBalancer) Name() string { return "loadbalancer" }

// Handle implements Handler: stamp the backend into the mbuf port and
// flow hash fields.
func (lb *LoadBalancer) Handle(m *Mbuf) Verdict {
	ft, err := traffic.ParseFrame(m.Data)
	if err != nil {
		return VerdictDrop
	}
	h := fnv.New32a()
	h.Write(ft.SrcIP[:])
	h.Write(ft.DstIP[:])
	h.Write([]byte{byte(ft.SrcPort >> 8), byte(ft.SrcPort), byte(ft.DstPort >> 8), byte(ft.DstPort), byte(ft.Proto)})
	// FNV-1a's low bits correlate for tuples whose fields differ by
	// the same byte (the prime is ≡3 mod 4, so two multiplies cancel
	// mod 4); finalize with murmur3's avalanche before reducing.
	m.FlowHash = fmix32(h.Sum32())
	backend := int(m.FlowHash % uint32(lb.backends))
	m.Port = uint16(backend)
	lb.counts[backend].Add(1)
	return VerdictForward
}

// fmix32 is murmur3's 32-bit finalizer: full avalanche so every
// input bit affects every output bit.
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Cost implements Handler.
func (lb *LoadBalancer) Cost() CostModel {
	return CostModel{CyclesPerPacket: 110, CyclesPerByte: 0, StateBytes: 4096}
}

// RateLimiter enforces a token-bucket packet rate in simulation time
// (mbuf arrival timestamps), dropping packets that exceed the
// contract — the policing NF of a TSP's SLA enforcement.
type RateLimiter struct {
	rate  float64 // tokens (packets) per second
	burst float64

	mu      sync.Mutex
	tokens  float64
	lastRef float64
	drops   atomic.Uint64
}

// NewRateLimiter builds a token bucket of `rate` packets/second with
// the given burst depth in packets.
func NewRateLimiter(rate, burst float64) (*RateLimiter, error) {
	if rate <= 0 || burst < 1 {
		return nil, errors.New("onvm: rate limiter needs positive rate and burst >= 1")
	}
	return &RateLimiter{rate: rate, burst: burst, tokens: burst}, nil
}

// Name implements Handler.
func (rl *RateLimiter) Name() string { return "ratelimiter" }

// Handle implements Handler.
func (rl *RateLimiter) Handle(m *Mbuf) Verdict {
	rl.mu.Lock()
	if m.Arrival > rl.lastRef {
		rl.tokens += (m.Arrival - rl.lastRef) * rl.rate
		if rl.tokens > rl.burst {
			rl.tokens = rl.burst
		}
		rl.lastRef = m.Arrival
	}
	ok := rl.tokens >= 1
	if ok {
		rl.tokens--
	}
	rl.mu.Unlock()
	if !ok {
		rl.drops.Add(1)
		return VerdictDrop
	}
	return VerdictForward
}

// Cost implements Handler.
func (rl *RateLimiter) Cost() CostModel {
	return CostModel{CyclesPerPacket: 90, CyclesPerByte: 0, StateBytes: 1024}
}

// DPI is a lightweight deep-packet-inspection classifier: it labels
// packets by well-known port and payload heuristics and counts per
// class. Unlike the IDS it never drops.
type DPI struct {
	counts map[string]*atomic.Uint64
}

// dpiClasses in classification order.
var dpiClasses = []string{"http", "dns", "tls", "other"}

// NewDPI builds the classifier.
func NewDPI() *DPI {
	d := &DPI{counts: make(map[string]*atomic.Uint64, len(dpiClasses))}
	for _, c := range dpiClasses {
		d.counts[c] = &atomic.Uint64{}
	}
	return d
}

// Name implements Handler.
func (d *DPI) Name() string { return "dpi" }

// Handle implements Handler.
func (d *DPI) Handle(m *Mbuf) Verdict {
	ft, err := traffic.ParseFrame(m.Data)
	if err != nil {
		d.counts["other"].Add(1)
		return VerdictForward
	}
	class := "other"
	switch {
	case ft.DstPort == 53 || ft.SrcPort == 53:
		class = "dns"
	case ft.DstPort == 443 || ft.SrcPort == 443:
		class = "tls"
	case ft.DstPort == 80 || ft.SrcPort == 80:
		class = "http"
	default:
		if p := l4Payload(m.Data); len(p) >= 4 {
			switch {
			case p[0] == 'G' && p[1] == 'E' && p[2] == 'T' && p[3] == ' ':
				class = "http"
			case p[0] == 0x16 && p[1] == 0x03:
				class = "tls"
			}
		}
	}
	d.counts[class].Add(1)
	return VerdictForward
}

// Cost implements Handler: header plus a short payload peek.
func (d *DPI) Cost() CostModel {
	return CostModel{CyclesPerPacket: 200, CyclesPerByte: 0.3, StateBytes: 16384}
}
