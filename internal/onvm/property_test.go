package onvm

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"greennfv/internal/traffic"
)

// Conservation under randomized chains: for any chain composition,
// batch size and ring capacity, every injected packet is either
// completed or attributed to a counted drop cause, and no mbuf leaks.
func TestRandomChainConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260610))
	builders := []func() Handler{
		func() Handler { return NewFirewall(nil, true) },
		func() Handler {
			return NewFirewall([]FirewallRule{
				{DstPortLo: 9, DstPortHi: 9, Action: FirewallDeny},
			}, true)
		},
		func() Handler { return NewNAT([4]byte{203, 0, 113, 9}) },
		func() Handler { h, _ := NewRouter(nil, 0); return h },
		func() Handler { h, _ := NewIDS([][]byte{[]byte("zzz-never-matches")}, true); return h },
		func() Handler { h, _ := NewCryptoNF(bytes.Repeat([]byte{3}, 16)); return h },
		func() Handler { return NewMonitor() },
		func() Handler { h, _ := NewLoadBalancer(3); return h },
		func() Handler { h, _ := NewRateLimiter(5e5, 64); return h },
		func() Handler { return NewDPI() },
	}
	for trial := 0; trial < 10; trial++ {
		nNFs := 1 + rng.Intn(4)
		handlers := make([]Handler, nNFs)
		for i := range handlers {
			handlers[i] = builders[rng.Intn(len(builders))]()
		}
		ringCap := 1 << (6 + rng.Intn(5)) // 64..1024
		batch := 1 + rng.Intn(64)
		chain, err := NewChain("prop", ChainConfig{RingCap: ringCap, Batch: batch}, handlers...)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := NewManager(ManagerConfig{
			PoolSize: 1024, PollSpins: 4, DrainTimeout: 10 * time.Second,
		}, chain)
		if err != nil {
			t.Fatal(err)
		}
		flow, err := traffic.SimpleFlow(trial+1, 1e5+rng.Float64()*9e5, 64+rng.Intn(512))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := traffic.NewGenerator(int64(trial), flow)
		if err != nil {
			t.Fatal(err)
		}
		const budget = 3000
		sent := 0
		src := &GeneratorSource{Next: func() ([]byte, float64, bool) {
			if sent >= budget {
				return nil, 0, false
			}
			sent++
			ev := gen.Next()
			return ev.Frame, ev.Time, true
		}}
		res, err := mgr.Run([]Source{src}, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Drained {
			t.Fatalf("trial %d: pipeline did not drain", trial)
		}
		st := mgr.Stats()
		var verdictDrops, ringDrops uint64
		for _, nf := range chain.NFs() {
			verdictDrops += nf.Stats().Dropped.Load()
			ringDrops += nf.Stats().RingDrops.Load()
		}
		accounted := res.Completed + verdictDrops + ringDrops +
			st.RxDropsNoMbuf.Load() + st.RxDropsRing.Load() + st.RxDropsTooLong.Load()
		if accounted != budget {
			t.Fatalf("trial %d (%v, ring %d, batch %d): %d accounted of %d",
				trial, chain, ringCap, batch, accounted, budget)
		}
		if mgr.pool.Available() != mgr.pool.Size() {
			t.Fatalf("trial %d: leaked %d mbufs", trial,
				mgr.pool.Size()-mgr.pool.Available())
		}
	}
}

// NFs must tolerate arbitrary frame contents without panicking: feed
// every library NF random garbage mbufs.
func TestHandlersSurviveGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := MustNewMempool(4)
	lb, _ := NewLoadBalancer(2)
	rl, _ := NewRateLimiter(1e5, 8)
	ids, _ := NewIDS([][]byte{[]byte("sig")}, true)
	cr, _ := NewCryptoNF(bytes.Repeat([]byte{1}, 16))
	vxE, _ := NewVXLANTunnel(5, false)
	vxD, _ := NewVXLANTunnel(5, true)
	rt, _ := NewRouter(nil, 0)
	handlers := []Handler{
		NewFirewall(nil, true), NewNAT([4]byte{1, 1, 1, 1}), rt,
		ids, cr, NewMonitor(), lb, rl, NewDPI(), vxE, vxD,
	}
	for trial := 0; trial < 300; trial++ {
		n := 14 + rng.Intn(200)
		m := pool.Get()
		buf, err := m.Reset(n)
		if err != nil {
			t.Fatal(err)
		}
		rng.Read(buf)
		h := handlers[rng.Intn(len(handlers))]
		_ = h.Handle(m) // any verdict is fine; panics are not
		m.Free()
	}
}
