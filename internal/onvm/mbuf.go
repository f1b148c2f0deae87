package onvm

import (
	"errors"
	"fmt"
)

// MbufSize is the backing-buffer size of every packet buffer: one
// DPDK-style 2 KiB slot, enough for a 1518 B frame plus headroom for
// encapsulation (VXLAN adds 50 B).
const MbufSize = 2048

// Headroom is the bytes reserved before the frame for prepending
// headers without copying, like rte_pktmbuf headroom.
const Headroom = 128

// Mbuf is one packet buffer. Data is the live frame; the full backing
// array (with headroom) is retained so Prepend can grow the frame in
// place.
type Mbuf struct {
	store [MbufSize]byte
	// Data is the current frame contents (a slice of store).
	Data []byte
	// Port is the ingress port index.
	Port uint16
	// FlowHash caches a 5-tuple hash for load balancing.
	FlowHash uint32
	// Arrival is the packet's arrival timestamp in seconds of
	// simulation time.
	Arrival float64
	// ChainPos tracks which NF in the chain handles the packet next.
	ChainPos int

	pool *Mempool
}

// Reset prepares the mbuf for a new frame of n bytes and returns the
// writable slice. It fails if n exceeds the usable capacity.
func (m *Mbuf) Reset(n int) ([]byte, error) {
	if n < 0 || n > MbufSize-Headroom {
		return nil, fmt.Errorf("onvm: frame of %d bytes exceeds mbuf capacity %d", n, MbufSize-Headroom)
	}
	m.Data = m.store[Headroom : Headroom+n]
	m.Port = 0
	m.FlowHash = 0
	m.Arrival = 0
	m.ChainPos = 0
	return m.Data, nil
}

// Prepend grows the frame by n bytes at the front (into the headroom)
// and returns the new prefix for writing, or an error if the headroom
// is exhausted. Used by encapsulating NFs (VXLAN).
func (m *Mbuf) Prepend(n int) ([]byte, error) {
	if n <= 0 {
		return nil, errors.New("onvm: prepend needs positive size")
	}
	// Compute current offset of Data within store.
	off := cap(m.store[:]) - cap(m.Data)
	if off < n {
		return nil, fmt.Errorf("onvm: headroom exhausted (%d < %d)", off, n)
	}
	m.Data = m.store[off-n : off+len(m.Data)]
	return m.Data[:n], nil
}

// Adj trims n bytes from the front of the frame (decapsulation).
func (m *Mbuf) Adj(n int) error {
	if n < 0 || n > len(m.Data) {
		return fmt.Errorf("onvm: cannot trim %d of %d bytes", n, len(m.Data))
	}
	m.Data = m.Data[n:]
	return nil
}

// Free returns the mbuf to its pool. Using an mbuf after Free is a
// bug, as it is in DPDK.
func (m *Mbuf) Free() {
	if m.pool != nil {
		m.pool.put(m)
	}
}

// Mempool is a bounded pool of mbufs, the stand-in for a hugepage
// rte_mempool. Exhaustion is a packet drop at RX, exactly as on the
// real platform when the DMA buffer runs out of descriptors.
// The pool is goroutine-safe.
type Mempool struct {
	free chan *Mbuf
	size int
}

// NewMempool builds a pool holding n mbufs.
func NewMempool(n int) (*Mempool, error) {
	if n <= 0 {
		return nil, errors.New("onvm: mempool needs at least one mbuf")
	}
	p := &Mempool{free: make(chan *Mbuf, n), size: n}
	for i := 0; i < n; i++ {
		m := &Mbuf{pool: p}
		m.Data = m.store[Headroom:Headroom]
		p.free <- m
	}
	return p, nil
}

// Get takes an mbuf from the pool, or nil if the pool is exhausted
// (callers count this as an RX drop).
func (p *Mempool) Get() *Mbuf {
	select {
	case m := <-p.free:
		return m
	default:
		return nil
	}
}

// put returns an mbuf. Internal: reached via Mbuf.Free.
func (p *Mempool) put(m *Mbuf) {
	select {
	case p.free <- m:
	default:
		// Double-free or foreign mbuf; drop it rather than block.
	}
}

// Available reports how many mbufs are currently free.
func (p *Mempool) Available() int { return len(p.free) }

// Size reports the pool's total capacity.
func (p *Mempool) Size() int { return p.size }
