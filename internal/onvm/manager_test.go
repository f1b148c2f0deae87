package onvm

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"greennfv/internal/traffic"
)

// genSource adapts a traffic.Generator into a bounded Source.
func genSource(t *testing.T, seed int64, budget int, flows ...*traffic.Flow) Source {
	t.Helper()
	gen, err := traffic.NewGenerator(seed, flows...)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	return &GeneratorSource{Next: func() ([]byte, float64, bool) {
		if n >= budget {
			return nil, 0, false
		}
		n++
		ev := gen.Next()
		return ev.Frame, ev.Time, true
	}}
}

func testChain(t *testing.T, cfg ChainConfig) *Chain {
	t.Helper()
	fw := NewFirewall(nil, true)
	nat := NewNAT([4]byte{203, 0, 113, 1})
	mon := NewMonitor()
	c, err := NewChain("c1", cfg, fw, nat, mon)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainConstruction(t *testing.T) {
	c := testChain(t, DefaultChainConfig())
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Head().Name() != "firewall" || c.Tail().Name() != "monitor" {
		t.Errorf("order: %v", c)
	}
	if got := c.String(); got != "c1[firewall -> nat -> monitor]" {
		t.Errorf("String = %q", got)
	}
	for _, nf := range c.NFs() {
		if err := nf.SetBatch(64); err != nil {
			t.Fatal(err)
		}
		if nf.Batch() != 64 {
			t.Errorf("%s batch = %d", nf.Name(), nf.Batch())
		}
	}
	if err := c.Head().SetBatch(0); err == nil {
		t.Error("batch 0 accepted")
	}
	if _, err := NewChain("", DefaultChainConfig(), NewMonitor()); err == nil {
		t.Error("unnamed chain accepted")
	}
	if _, err := NewChain("x", DefaultChainConfig()); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := NewChain("x", ChainConfig{RingCap: 3, Batch: 1}, NewMonitor()); err == nil {
		t.Error("bad ring capacity accepted")
	}
}

func TestManagerEndToEnd(t *testing.T) {
	chain := testChain(t, ChainConfig{RingCap: 1024, Batch: 32})
	mgr, err := NewManager(ManagerConfig{PoolSize: 2048, PollSpins: 8, DrainTimeout: 10 * time.Second}, chain)
	if err != nil {
		t.Fatal(err)
	}
	flow, _ := traffic.SimpleFlow(1, 100000, 128)
	const budget = 5000
	res, err := mgr.Run([]Source{genSource(t, 1, budget, flow)}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("pipeline did not drain")
	}
	if res.Injected != budget {
		t.Errorf("injected = %d, want %d", res.Injected, budget)
	}
	// Conservation: every injected packet either completed or was
	// dropped with a counted cause.
	stats := mgr.Stats()
	accepted := stats.RxPackets.Load()
	var verdictDrops, ringDrops uint64
	for _, nf := range chain.NFs() {
		verdictDrops += nf.Stats().Dropped.Load()
		ringDrops += nf.Stats().RingDrops.Load()
	}
	total := res.Completed + verdictDrops + ringDrops +
		stats.RxDropsNoMbuf.Load() + stats.RxDropsRing.Load() + stats.RxDropsTooLong.Load()
	if total != budget {
		t.Errorf("conservation violated: completed=%d verdict=%d ring=%d rxdrops=%d+%d+%d sum=%d want=%d",
			res.Completed, verdictDrops, ringDrops,
			stats.RxDropsNoMbuf.Load(), stats.RxDropsRing.Load(), stats.RxDropsTooLong.Load(), total, budget)
	}
	if accepted != res.Completed+verdictDrops+ringDrops {
		t.Errorf("accepted %d != completed %d + drops %d", accepted, res.Completed, verdictDrops+ringDrops)
	}
	// The permissive chain should complete everything it accepted.
	if res.Completed != accepted {
		t.Errorf("completed = %d, accepted = %d", res.Completed, accepted)
	}
	// The monitor at the tail saw every completed packet.
	mon := chain.Tail().handler.(*Monitor)
	if pk := mon.pkts.Load(); pk != res.Completed {
		t.Errorf("monitor saw %d, completed %d", pk, res.Completed)
	}
	if res.VirtualSpan <= 0 {
		t.Error("virtual span not recorded")
	}
	// All mbufs returned.
	if mgr.pool.Available() != mgr.pool.Size() {
		t.Errorf("leaked mbufs: %d/%d", mgr.pool.Available(), mgr.pool.Size())
	}
}

// slowNF forwards everything but yields the processor per packet, so
// whatever feeds it outruns it.
type slowNF struct{ *Monitor }

func (s *slowNF) Name() string { return "slow" }

func (s *slowNF) Handle(m *Mbuf) Verdict {
	runtime.Gosched()
	return s.Monitor.Handle(m)
}

// TestMidChainBackpressureIsLossless pins where loss happens: a fast
// head feeding a slow successor through a 16-slot ring stalls on the
// full ring instead of dropping, so every packet RX accepted completes
// and RingDrops stays zero while the manager runs.
func TestMidChainBackpressureIsLossless(t *testing.T) {
	chain, err := NewChain("bp", ChainConfig{RingCap: 16, Batch: 8}, NewMonitor(), &slowNF{NewMonitor()})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(ManagerConfig{PoolSize: 256, PollSpins: 4, DrainTimeout: 10 * time.Second}, chain)
	if err != nil {
		t.Fatal(err)
	}
	flow, _ := traffic.SimpleFlow(1, 100000, 64)
	const budget = 3000
	res, err := mgr.Run([]Source{genSource(t, 7, budget, flow)}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("pipeline did not drain")
	}
	accepted := mgr.Stats().RxPackets.Load()
	if accepted == 0 {
		t.Fatal("RX accepted nothing; test vacuous")
	}
	for _, nf := range chain.NFs() {
		if d := nf.Stats().RingDrops.Load(); d != 0 {
			t.Errorf("%s dropped %d packets mid-chain", nf.Name(), d)
		}
	}
	if res.Completed != accepted {
		t.Errorf("completed = %d, accepted = %d", res.Completed, accepted)
	}
	if got := accepted + mgr.Stats().RxDropsRing.Load() + mgr.Stats().RxDropsNoMbuf.Load(); got != budget {
		t.Errorf("accepted + RX drops = %d, want %d", got, budget)
	}
}

// TestFullRingDropsOnceShutdownBegan pins the other half: after done
// is closed a full downstream ring is a counted RingDrop, not a spin
// on a successor that may have exited.
func TestFullRingDropsOnceShutdownBegan(t *testing.T) {
	chain, err := NewChain("sd", ChainConfig{RingCap: 2, Batch: 8}, NewMonitor(), NewMonitor())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMempool(8)
	if err != nil {
		t.Fatal(err)
	}
	head := chain.Head()
	// Nobody consumes the successor's ring; hand the head more
	// packets than that ring holds, two at a time.
	done := make(chan struct{})
	close(done)
	scratch := make([]*Mbuf, 8)
	delivered := 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			m := pool.Get()
			if _, err := m.Reset(64); err != nil {
				t.Fatal(err)
			}
			if !head.deliver(m) {
				t.Fatal("head ring refused a packet")
			}
			delivered++
		}
		head.processBurst(scratch, done)
	}
	st := head.Stats().Snapshot()
	if st.TxPackets+st.RingDrops != uint64(delivered) || st.RingDrops == 0 {
		t.Errorf("tx %d + ring drops %d, want %d with at least one drop", st.TxPackets, st.RingDrops, delivered)
	}
}

func TestManagerMultipleChains(t *testing.T) {
	c1 := testChain(t, ChainConfig{RingCap: 512, Batch: 16})
	fw2 := NewFirewall([]FirewallRule{{DstPortLo: 9, DstPortHi: 9, Action: FirewallDeny}}, true)
	c2, err := NewChain("c2", ChainConfig{RingCap: 512, Batch: 16}, fw2, NewDPI())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(ManagerConfig{PoolSize: 4096, PollSpins: 4, DrainTimeout: 10 * time.Second}, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := traffic.SimpleFlow(1, 50000, 64)
	f2, _ := traffic.SimpleFlow(2, 50000, 64) // dst port 9 → denied by fw2
	res, err := mgr.Run([]Source{
		genSource(t, 1, 2000, f1),
		genSource(t, 2, 2000, f2),
	}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("did not drain")
	}
	if c1.Completed() == 0 {
		t.Error("chain 1 completed nothing")
	}
	// Chain 2's firewall denies everything (SimpleFlow dst port is 9).
	// Under CPU starvation some packets may legitimately drop at the
	// RX ring instead of reaching the firewall, so assert the policy
	// outcome (nothing completes; everything accepted is denied), not
	// an exact denial count.
	if c2.Completed() != 0 {
		t.Errorf("chain 2 completed %d, want 0 (all denied)", c2.Completed())
	}
	if fw2.denied.Load() == 0 {
		t.Error("fw2 denied nothing")
	}
	fw2Seen := c2.Head().Stats().RxPackets.Load()
	if fw2.denied.Load() != fw2Seen {
		t.Errorf("fw2 denied %d of %d packets seen", fw2.denied.Load(), fw2Seen)
	}
}

func TestManagerSourceCountMismatch(t *testing.T) {
	mgr, _ := NewManager(DefaultManagerConfig(), testChain(t, DefaultChainConfig()))
	if _, err := mgr.Run(nil, 10); err == nil {
		t.Error("mismatched sources accepted")
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(DefaultManagerConfig()); err == nil {
		t.Error("chainless manager accepted")
	}
	if _, err := NewManager(ManagerConfig{PoolSize: 10, PollSpins: -1}, testChain(t, DefaultChainConfig())); err == nil {
		t.Error("negative PollSpins accepted")
	}
	if _, err := NewManager(ManagerConfig{PoolSize: 0, PollSpins: 1}, testChain(t, DefaultChainConfig())); err == nil {
		t.Error("zero pool accepted")
	}
}

func TestManagerOversizedFrameCounted(t *testing.T) {
	chain := testChain(t, DefaultChainConfig())
	mgr, _ := NewManager(ManagerConfig{PoolSize: 64, PollSpins: 2, DrainTimeout: 5 * time.Second}, chain)
	big := bytes.Repeat([]byte{0}, MbufSize)
	sent := false
	src := &GeneratorSource{Next: func() ([]byte, float64, bool) {
		if sent {
			return nil, 0, false
		}
		sent = true
		return big, 0, true
	}}
	if _, err := mgr.Run([]Source{src}, 10); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().RxDropsTooLong.Load() != 1 {
		t.Errorf("too-long drops = %d, want 1", mgr.Stats().RxDropsTooLong.Load())
	}
}

// Full IDS+crypto chain with encapsulation: heavier integration path.
func TestManagerHeavyChain(t *testing.T) {
	ids, _ := NewIDS([][]byte{[]byte("malware")}, true)
	cr, _ := NewCryptoNF(bytes.Repeat([]byte{9}, 16))
	vx, _ := NewVXLANTunnel(7, false)
	chain, err := NewChain("heavy", ChainConfig{RingCap: 1024, Batch: 32}, ids, cr, vx)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(ManagerConfig{PoolSize: 2048, PollSpins: 8, DrainTimeout: 10 * time.Second}, chain)
	if err != nil {
		t.Fatal(err)
	}
	flow, _ := traffic.SimpleFlow(3, 10000, 512)
	res, err := mgr.Run([]Source{genSource(t, 5, 1000, flow)}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.Completed != 1000 {
		t.Errorf("completed = %d drained=%v, want 1000/true", res.Completed, res.Drained)
	}
	if cr.processed.Load() != 1000 {
		t.Errorf("crypto processed %d", cr.processed.Load())
	}
}

func TestNFBatchValidation(t *testing.T) {
	nf, err := NewNF(NewMonitor(), 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := nf.SetBatch(2000); err == nil {
		t.Error("oversized batch accepted")
	}
	if nf.RingLen() != 0 {
		t.Error("fresh NF has queued packets")
	}
	if _, err := NewNF(nil, 64, 32); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := NewNF(NewMonitor(), 63, 32); err == nil {
		t.Error("bad ring cap accepted")
	}
	if _, err := NewNF(NewMonitor(), 64, 0); err == nil {
		t.Error("zero batch accepted")
	}
}

// DefaultChainConfig mirrors OpenNetVM defaults: 4096-entry rings,
// 32-packet bursts.
func DefaultChainConfig() ChainConfig {
	return ChainConfig{RingCap: 4096, Batch: 32}
}

// DefaultManagerConfig returns production-like defaults.
func DefaultManagerConfig() ManagerConfig {
	return ManagerConfig{PoolSize: 8192, PollSpins: 64, DrainTimeout: 5 * time.Second}
}
