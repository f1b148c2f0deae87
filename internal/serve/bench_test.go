package serve

// BenchmarkControllerReport measures the report fast path — the
// operation whose cost bounds fleet size. The serial case is the
// single-caller floor; the parallel cases show how lock striping, the
// atomic policy snapshot, and pooled inference scratch let many nodes
// report concurrently. The persist variants run the production
// configuration (StatePath set): steady reports never touch the disk,
// changing ones each append one fsynced journal record (and compact
// into a snapshot when the journal outgrows it). Tracked in BENCH.json
// by the CI bench lane.

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"greennfv/internal/rpcutil"
	"greennfv/internal/sla"
)

// benchFleet builds a controller with nodes registered nodes plus the
// matching per-node observation/traffic fixtures; persist sets
// StatePath.
func benchFleet(b testing.TB, nodes int, persist bool) (*Controller, []*simNode) {
	b.Helper()
	dir := b.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	cfg := Config{Spec: spec, PolicyPath: writePolicy(b, dir, spec, 17)}
	if persist {
		cfg.StatePath = filepath.Join(dir, "controller.state")
	}
	ctrl, err := NewController(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ctrl.Close() })
	sims := make([]*simNode, nodes)
	for i := range sims {
		sims[i] = newSimNode(b, spec, i)
		if err := sims[i].register(ctrl); err != nil {
			b.Fatal(err)
		}
		// One priming step so every node reports from steady state.
		if _, err := sims[i].step(ctrl); err != nil {
			b.Fatal(err)
		}
		sims[i].env.ObserveInto(sims[i].obs)
	}
	return ctrl, sims
}

// reportOnce drives one Controller.Report for node n without advancing
// the env (pure controller-side work, so the benchmark isolates the
// serving path from the simulated dataplane).
func reportOnce(c *Controller, n *simNode, reply *ReportReply) error {
	*reply = ReportReply{}
	return c.report(&ReportArgs{
		NodeID:  n.id,
		Epoch:   n.epoch,
		Obs:     n.obs,
		Traffic: n.env.LastTraffic(),
	}, reply)
}

// forgetLastGood drops node n's last-known-good, so its next report —
// the same vetted config as ever — counts as a config change and takes
// the durable path.
func forgetLastGood(c *Controller, n *simNode) {
	sh := c.shardFor(n.id)
	sh.mu.Lock()
	delete(sh.lastGood, n.id)
	sh.mu.Unlock()
}

func BenchmarkControllerReport(b *testing.B) {
	// serial drives one node from one goroutine; parallel gives each
	// RunParallel goroutine a node of its own.
	serial := func(persist, changing bool) func(*testing.B) {
		return func(b *testing.B) {
			ctrl, sims := benchFleet(b, 1, persist)
			var reply ReportReply
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if changing {
					forgetLastGood(ctrl, sims[0])
				}
				if err := reportOnce(ctrl, sims[0], &reply); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	parallel := func(nodes int, persist, changing bool) func(*testing.B) {
		return func(b *testing.B) {
			ctrl, sims := benchFleet(b, nodes, persist)
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				n := sims[int(next.Add(1)-1)%nodes]
				var reply ReportReply
				for pb.Next() {
					if changing {
						forgetLastGood(ctrl, n)
					}
					if err := reportOnce(ctrl, n, &reply); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
	}
	b.Run("serial/nodes=1", serial(false, false))
	for _, nodes := range []int{8, 32} {
		b.Run(fmt.Sprintf("parallel/nodes=%d", nodes), parallel(nodes, false, false))
	}
	for _, v := range []struct {
		name     string
		changing bool
	}{{"steady", false}, {"changing", true}} {
		b.Run("persist/"+v.name+"/serial/nodes=1", serial(true, v.changing))
		b.Run("persist/"+v.name+"/parallel/nodes=32", parallel(32, true, v.changing))
	}
}

// BenchmarkReportRoundTrip is the steady serving tick's controller
// call with its transport: 32 agents' connections taken round-robin
// over loopback, each call a Report out and a vetted config back
// through rpcutil and the layouts in rpc.go. Beside ControllerReport
// (the same decision, called directly) it prices the wire; allocs/op
// is client and server together.
func BenchmarkReportRoundTrip(b *testing.B) {
	const nodes = 32
	ctrl, sims := benchFleet(b, nodes, false)
	if err := ctrl.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	conns := make([]*rpcutil.Conn, nodes)
	reports := make([]ReportArgs, nodes)
	for i, n := range sims {
		conn, err := rpcutil.Dial(ctrl.Addr(), DefaultCallTimeout)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { conn.Close() })
		conns[i] = conn
		reports[i] = ReportArgs{NodeID: n.id, Epoch: n.epoch, Obs: n.obs, Traffic: n.env.LastTraffic()}
	}
	var reply ReportReply
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conns[i%nodes].Call("Controller.Report", &reports[i%nodes], &reply); err != nil || reply.Hold {
			b.Fatalf("report: hold=%v, %v", reply.Hold, err)
		}
	}
}
