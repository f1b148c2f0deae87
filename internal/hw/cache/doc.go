// Package cache models the shared last-level cache (LLC) miss rate
// and its Data Direct I/O (DDIO) interaction — the part of the cache
// GreenNFV's performance model evaluates.
//
// The model follows the paper's testbed part (Xeon E5-2620 v4: 20 MB
// LLC organized as 20 ways of 1 MB). An NF's LLC allocation is a byte
// capacity (the share of the non-DDIO ways its knob selects; Intel CAT
// would install it as a contiguous way mask), and by convention the
// top 10% of the LLC is reserved for DDIO, the region NIC DMA writes
// land in.
//
// # Paper mapping
//
// The LLC-allocation knob of equation 7 and the miss-rate behaviour
// behind paper Figure 1 (throughput/energy vs LLC share); DDIO
// interaction feeds the Figure 4 DMA-buffer curve via internal/hw/dma.
//
// # Concurrency and determinism
//
// Pure functions of their arguments: no state, no RNG.
package cache
