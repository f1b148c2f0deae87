package onvm

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrRingSize is returned for ring capacities that are not powers of
// two (a DPDK rte_ring requirement this model keeps: the index mask
// trick needs it).
var ErrRingSize = errors.New("onvm: ring capacity must be a power of two >= 2")

// Ring is a bounded single-producer/single-consumer lock-free queue
// of *Mbuf, the equivalent of the two circular queues OpenNetVM gives
// each NF. Exactly one goroutine may enqueue and one may dequeue.
type Ring struct {
	mask uint64
	buf  []*Mbuf
	_    [64]byte // keep head and tail on separate cache lines
	head atomic.Uint64
	_    [64]byte
	tail atomic.Uint64
}

// NewRing builds a ring with the given power-of-two capacity.
func NewRing(capacity int) (*Ring, error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("%w: got %d", ErrRingSize, capacity)
	}
	return &Ring{mask: uint64(capacity - 1), buf: make([]*Mbuf, capacity)}, nil
}

// Cap reports the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Len reports the number of queued packets (approximate under
// concurrency, exact when quiescent).
func (r *Ring) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Enqueue adds one packet; it reports false when the ring is full
// (the caller drops the packet, exactly like rte_ring).
func (r *Ring) Enqueue(m *Mbuf) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = m
	r.tail.Store(tail + 1)
	return true
}

// DequeueBurst removes up to len(dst) packets into dst and reports
// the count — the batched read the paper's batch-size knob controls.
func (r *Ring) DequeueBurst(dst []*Mbuf) int {
	head := r.head.Load()
	avail := r.tail.Load() - head
	n := uint64(len(dst))
	if n > avail {
		n = avail
	}
	for i := uint64(0); i < n; i++ {
		idx := (head + i) & r.mask
		dst[i] = r.buf[idx]
		r.buf[idx] = nil
	}
	if n > 0 {
		r.head.Store(head + n)
	}
	return int(n)
}
