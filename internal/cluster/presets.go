package cluster

import (
	"fmt"

	"greennfv/internal/hw/cache"
	"greennfv/internal/hw/power"
	"greennfv/internal/perfmodel"
)

// DefaultLink models a 40GbE leaf fabric: 40 Gb/s per node pair,
// 50 µs one-way hop (NIC + ToR switch + wire), 2.5 W per Gb/s
// transferred (both NICs plus the switch port share).
func DefaultLink() LinkModel {
	return LinkModel{BandwidthBps: 40e9, LatencyNs: 50e3, WattsPerGbps: 2.5}
}

// SmallNodeModel is the heterogeneous fleet's second host class: an
// edge-class box with half the cores, a 12-way LLC, and a lower
// idle/max power envelope than the paper's testbed server.
func SmallNodeModel() perfmodel.Config {
	m := perfmodel.Default()
	m.NumCores = 8
	m.Cache = cache.Config{Ways: 12, WayBytes: 1 << 20, DDIOWays: 2, ColdMissRate: 0.02}
	m.Power = power.Model{PIdle: 55, PMax: 170, H: 1.4, FMin: 1.2, FMax: 2.1, FreqExp: 2.4}
	m.StaticCoreWatts = 4
	return m
}

// Homogeneous builds an n-node cluster of the paper's testbed server
// (perfmodel.Default) joined by the default fabric. Homogeneous(1)
// is the single-node model: EvaluateClusterInto on it reproduces the
// existing path bit-for-bit.
func Homogeneous(n int) Topology {
	t := Topology{Link: DefaultLink()}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, NodeSpec{
			Name:  fmt.Sprintf("node%02d", i),
			Model: perfmodel.Default(),
		})
	}
	return t
}

// Heterogeneous builds an n-node cluster alternating the testbed
// server (even indices) with the edge-class SmallNodeModel (odd
// indices) — the placement-sensitive fleet the cluster figures sweep.
func Heterogeneous(n int) Topology {
	t := Topology{Link: DefaultLink()}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			t.Nodes = append(t.Nodes, NodeSpec{
				Name:  fmt.Sprintf("big%02d", i),
				Model: perfmodel.Default(),
			})
		} else {
			t.Nodes = append(t.Nodes, NodeSpec{
				Name:  fmt.Sprintf("small%02d", i),
				Model: SmallNodeModel(),
			})
		}
	}
	return t
}
