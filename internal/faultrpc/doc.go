// Package faultrpc is test support for the two RPC planes built on
// internal/rpcutil: a seeded-deterministic TCP proxy that injects
// transport faults between clients and a server. No production
// package imports it. The trainer's chaos test points
// apex.TrainerConfig.AdvertiseAddr at a FaultProxy so every actor RPC
// crosses it, and the serving plane's e2e and fleet-soak tests put
// one between node agents and the controller; rules then drop
// connections (the client sees a mid-call transport error and must
// redial), delay them (exercising per-call deadlines and backoff), or
// partition the link entirely.
//
// # Concurrency and determinism
//
// Faults are drawn from a seeded RNG under the proxy's mutex, one
// draw pair per accepted connection, so a failing chaos run replays
// with the same fault schedule for the same connection order. A
// FaultProxy is safe for concurrent use: SetRule, Partition, Stats
// and Close may race with live traffic, a connection is closed exactly
// once by whoever removes it from the tracking set, and injected
// sleeps are interruptible so Close never waits out a fault schedule.
package faultrpc
