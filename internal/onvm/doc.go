// Package onvm is the packet-processing substrate GreenNFV runs on,
// a software reproduction of the OpenNetVM platform the paper builds
// upon: fixed-size packet buffers (mbufs) drawn from a bounded
// mempool, lock-free circular queues between pipeline stages, network
// functions with an RX and a TX ring each, a manager that wires
// service chains and moves packets with a mix of polling and
// callback-style wakeups, and a library of realistic NFs (firewall,
// NAT, router, IDS, crypto, …).
//
// # Paper mapping
//
// The ONVM platform of §4.4 and the poll/callback packet-movement
// mix whose energy cost the Figure 9 platform variants compare; the
// NF library gives the service chains of Figures 1–4 concrete
// packet-level behaviour in the nfvsim harness.
//
// # Where packets are lost
//
// Only at RX. The manager's RX path drops a frame when the mempool is
// exhausted or the chain head's ring is full (ManagerStats counts
// each cause) — the NIC has nowhere to put it. Between NFs delivery is
// lossless: an NF that finds its successor's ring full yields and
// retries, so a slow stage backs pressure up the chain to the head
// ring and the loss shows up as an RX drop. This is the contract
// perfmodel assumes (DropProb is the RX-drop probability at the chain
// head), and it makes "a permissive chain completes everything RX
// accepted" hold at any core count rather than by scheduling luck.
// The one exception is shutdown: once Run has stopped waiting for the
// drain, a full downstream ring is a counted NFStats.RingDrops rather
// than a retry, so a worker can never spin on a successor that has
// exited. Packet conservation (injected = completed + counted drops)
// holds either way.
//
// # Concurrency and determinism
//
// Ring is a bounded single-producer/single-consumer lock-free queue
// (atomic head/tail): exactly one goroutine may enqueue and one
// dequeue per ring, the standard DPDK/ONVM discipline. The mempool
// is goroutine-safe; mbufs themselves belong to whichever stage
// holds them. NFs and the manager are single-goroutine-per-NF. With
// a seeded traffic source a manager run is deterministic; rings
// shared across OS threads order only per the SPSC contract.
package onvm
