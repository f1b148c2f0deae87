package dma

import "math"

// Buffer describes a DMA buffer configuration.
type Buffer struct {
	// Bytes is the total buffer capacity.
	Bytes int64
	// DescriptorBytes is the per-packet descriptor overhead
	// (16 B on the X540; descriptors live in the buffer too).
	DescriptorBytes int64
	// FrameBytes is the MTU-sized slot reserved per packet
	// (2 KiB mbuf slots in DPDK for 1518 B frames).
	FrameBytes int64
}

// Default returns a buffer sized like the paper's default
// configuration (2 MB, DPDK 2 KiB mbufs, 16 B descriptors).
func Default() Buffer {
	return Buffer{Bytes: 2 << 20, DescriptorBytes: 16, FrameBytes: 2048}
}

// Slots reports how many packet slots the buffer holds.
func (b Buffer) Slots() int64 {
	per := b.FrameBytes + b.DescriptorBytes
	if per <= 0 {
		return 0
	}
	return b.Bytes / per
}

// WithBytes returns a copy resized to n bytes (minimum one slot).
func (b Buffer) WithBytes(n int64) Buffer {
	min := b.FrameBytes + b.DescriptorBytes
	if n < min {
		n = min
	}
	b.Bytes = n
	return b
}

// DropProbability estimates the steady-state packet drop probability
// for a finite buffer of k slots under an M/M/1/k approximation with
// offered load rho = arrival/drain. This captures the paper's
// observation that tiny DMA buffers throttle throughput.
func (b Buffer) DropProbability(arrivalPps, drainPps float64) float64 {
	k := float64(b.Slots())
	if k <= 0 {
		return 1
	}
	if drainPps <= 0 {
		return 1
	}
	rho := arrivalPps / drainPps
	if rho < 0 {
		return 0
	}
	if math.Abs(rho-1) < 1e-9 {
		return 1 / (k + 1)
	}
	// P_drop = (1-rho) rho^k / (1 - rho^(k+1)), stable in log space
	// for large k. rho^(k+1) reuses the rho^k exponentiation — k runs
	// into the thousands for real buffers, and this sits on the
	// analytic model's per-evaluation hot path.
	if rho < 1 {
		pk := math.Exp(k * math.Log(rho)) // rho^k; rho in (0,1) so Log is safe
		num := (1 - rho) * pk
		den := 1 - pk*rho
		if den == 0 {
			return 0
		}
		return num / den
	}
	// rho > 1: (rho-1)rho^k/(rho^(k+1)-1) = (1-1/rho)/(1-(1/rho)^{k+1}),
	// approaching 1 − 1/rho for large k.
	inv := 1 / rho
	num := 1 - inv
	den := 1 - math.Exp(k*math.Log(inv))*inv
	if den == 0 {
		return 1
	}
	return num / den
}
