package serve

import (
	"bytes"
	"net"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"greennfv/internal/perfmodel"
	"greennfv/internal/rpcutil"
	"greennfv/internal/sla"
	"greennfv/internal/stats"
)

// wireSamples is one valid value of each message the agents and the
// controller exchange, and its empty value.
func wireSamples() []rpcutil.Wire {
	return []rpcutil.Wire{
		&RegisterNodeArgs{NodeID: "node-007"},
		&RegisterNodeArgs{},
		&RegisterNodeReply{Epoch: 1 << 40, PolicyVersion: 3},
		&RegisterNodeReply{},
		&ReportArgs{
			NodeID: "node-007", Epoch: 9, Obs: []float64{0.25, -1, 1e300},
			Traffic: perfmodel.Traffic{OfferedPPS: 1.5e6, FrameBytes: 1518, Burstiness: 1.2},
		},
		&ReportArgs{},
		&ReportReply{Config: testKnobs(4), Source: SourcePolicy, PolicyVersion: 2},
		&ReportReply{Config: testKnobs(1), Source: SourceLastGood, PolicyVersion: -1},
		&ReportReply{Hold: true, Source: SourceHold, PolicyVersion: 2},
		&ReportReply{Source: SourceFallback},
		&ReportReply{},
	}
}

// fresh returns a new zero message of m's type.
func fresh(m rpcutil.Wire) rpcutil.Wire {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(rpcutil.Wire)
}

// Every message survives its layout, into a zero receiver and into one
// still holding another message: ReadWire overwrites every field.
func TestWireRoundTrip(t *testing.T) {
	samples := wireSamples()
	for _, m := range samples {
		wire := m.AppendWire(nil)
		got := fresh(m)
		if err := got.ReadWire(wire); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%+v: read back %+v, %v", m, got, err)
		}
		for _, dirty := range samples {
			if reflect.TypeOf(dirty) != reflect.TypeOf(m) {
				continue
			}
			reused := fresh(m)
			if err := reused.ReadWire(dirty.AppendWire(nil)); err != nil {
				t.Fatal(err)
			}
			if err := reused.ReadWire(wire); err != nil || !reflect.DeepEqual(reused, m) {
				t.Errorf("%+v over %+v: read back %+v, %v", m, dirty, reused, err)
			}
		}
		if prefixed := m.AppendWire([]byte("xy")); !bytes.Equal(prefixed[2:], wire) {
			t.Errorf("%T.AppendWire does not append", m)
		}
	}
}

// A layout cut at every byte offset, or followed by one byte more, is
// an error — never a panic, and never a config (the journal's crash
// matrix, on the wire).
func TestWireTruncation(t *testing.T) {
	for _, m := range wireSamples() {
		wire := m.AppendWire(nil)
		for cut := 0; cut <= len(wire); cut++ {
			data := wire[:cut]
			if cut == len(wire) {
				data = append(append([]byte(nil), wire...), 0)
			}
			got := fresh(m)
			if err := got.ReadWire(data); err == nil {
				t.Errorf("%T cut at %d of %d decoded to %+v", m, cut, len(wire), got)
			}
			if !reflect.DeepEqual(got, fresh(m)) {
				t.Errorf("%T cut at %d of %d left %+v behind its error", m, cut, len(wire), got)
			}
		}
	}
}

// Out-of-range bytes inside a well-sized layout are refused: Hold is 0
// or 1, Source is the enum, and a Source the enum lacks does not cross.
func TestWireRejectsOutOfRange(t *testing.T) {
	wire := (&ReportReply{Config: testKnobs(2), Source: SourcePolicy}).AppendWire(nil)
	for name, mutate := range map[string]func(b []byte){
		"hold 2":           func(b []byte) { b[0] = 2 },
		"source past enum": func(b []byte) { b[1] = byte(len(wireSources)) },
		"count too big":    func(b []byte) { b[13]++ },
		"count too small":  func(b []byte) { b[13]-- },
		"count huge":       func(b []byte) { b[10] = 0xff },
	} {
		b := append([]byte(nil), wire...)
		mutate(b)
		var got ReportReply
		if err := got.ReadWire(b); err == nil || got.Config != nil {
			t.Errorf("%s: decoded to %+v, %v", name, got, err)
		}
	}
	unknown := (&ReportReply{Source: "made-up"}).AppendWire(nil)
	if err := new(ReportReply).ReadWire(unknown); err == nil {
		t.Error("a source outside the enum crossed the wire")
	}
	long := (&ReportArgs{NodeID: strings.Repeat("n", MaxNodeIDLen+1)}).AppendWire(nil)
	var got ReportArgs
	if err := got.ReadWire(long); err != nil || got.NodeID != "" {
		t.Errorf("over-long node ID crossed as %q, %v; want the empty ID", got.NodeID, err)
	}
}

// FuzzReportWire: whatever the bytes, each message's ReadWire either
// refuses them or yields a value whose layout is those bytes exactly —
// so no two byte strings mean the same message and nothing is ignored.
func FuzzReportWire(f *testing.F) {
	kinds := []rpcutil.Wire{&RegisterNodeArgs{}, &RegisterNodeReply{}, &ReportArgs{}, &ReportReply{}}
	for _, m := range wireSamples() {
		for kind, k := range kinds {
			if reflect.TypeOf(k) == reflect.TypeOf(m) {
				f.Add(uint8(kind), m.AppendWire(nil))
			}
		}
	}
	f.Add(uint8(3), []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}) // 4 Gi knob sets
	f.Add(uint8(2), []byte{0xff, 'n'})
	f.Add(uint8(0), (&RegisterNodeArgs{NodeID: strings.Repeat("n", MaxNodeIDLen)}).AppendWire(nil))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		m := fresh(kinds[int(kind)%len(kinds)])
		if err := m.ReadWire(data); err != nil {
			if !reflect.DeepEqual(m, fresh(m)) {
				t.Fatalf("%T refused %x but kept %+v", m, data, m)
			}
			return
		}
		if again := m.AppendWire(nil); !bytes.Equal(again, data) {
			t.Fatalf("%T read %x as %+v, which writes as %x", m, data, m, again)
		}
	})
}

// A node ID is 1 to MaxNodeIDLen bytes everywhere one enters: agent
// construction, Register and Report, called directly or over the wire
// (where an over-long ID arrives empty). A refused ID leaves no record.
func TestNodeIDBounds(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	ctrl := startController(t, Config{Spec: spec, PolicyPath: writePolicy(t, dir, spec, 3)})
	conn, err := rpcutil.Dial(ctrl.Addr(), DefaultCallTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	n := newSimNode(t, spec, 0)
	n.env.ObserveInto(n.obs)

	longest := strings.Repeat("n", MaxNodeIDLen)
	var reg RegisterNodeReply
	if err := conn.Call("Controller.Register", &RegisterNodeArgs{NodeID: longest}, &reg); err != nil {
		t.Fatalf("a %d-byte ID was refused: %v", MaxNodeIDLen, err)
	}
	report := ReportArgs{NodeID: longest, Epoch: reg.Epoch, Obs: n.obs, Traffic: n.env.LastTraffic()}
	if err := conn.Call("Controller.Report", &report, new(ReportReply)); err != nil {
		t.Fatalf("report under a %d-byte ID: %v", MaxNodeIDLen, err)
	}
	for _, id := range []string{"", longest + "n", strings.Repeat("n", 1<<16)} {
		if _, err := NewNodeAgent(NodeConfig{NodeID: id, ControllerAddr: ctrl.Addr(), Spec: spec}); err == nil {
			t.Errorf("NewNodeAgent took a %d-byte ID", len(id))
		}
		report.NodeID = id
		for name, err := range map[string]error{
			"register":          ctrl.register(&RegisterNodeArgs{NodeID: id}, &reg),
			"report":            ctrl.report(&report, new(ReportReply)),
			"register over rpc": conn.Call("Controller.Register", &RegisterNodeArgs{NodeID: id}, &reg),
			"report over rpc":   conn.Call("Controller.Report", &report, new(ReportReply)),
		} {
			if err == nil || IsUnregisteredNode(err) || !strings.Contains(err.Error(), "node ID") {
				t.Errorf("%s with a %d-byte ID: %v, want it refused as a bad ID", name, len(id), err)
			}
		}
	}
	if got := ctrl.RegisteredNodes(); got != 1 {
		t.Errorf("%d nodes registered, want only the %d-byte one", got, MaxNodeIDLen)
	}
	records := 0
	for i := range ctrl.shards {
		records += len(ctrl.shards[i].nodes)
	}
	if records != 1 {
		t.Errorf("%d node records kept, want 1: a refused ID must not become a map key", records)
	}
}

// reportAllocBudget is what one steady Report costs in allocations,
// client and server together: none. The server keeps the call's typed
// messages per connection and reaches the handler through
// rpcutil.Method, with no reflection per call; the node ID is kept
// while it matches, and the reply shares the controller's stored
// last-known-good.
const reportAllocBudget = 0

// skipUnderRace skips an allocation gate in a race-detector build.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector makes sync.Pool drop pooled scratch at random; scripts/gates.sh runs this gate without it")
			}
		}
	}
}

// TestReportRoundTripAllocs holds a steady Report over loopback — the
// agent's reused messages out, the controller's decision, the layouts
// back — to its allocation budget. AllocsPerRun counts every goroutine,
// so the server side is in the figure.
func TestReportRoundTripAllocs(t *testing.T) {
	skipUnderRace(t)
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	ctrl := startController(t, Config{Spec: spec, PolicyPath: writePolicy(t, dir, spec, 5)})
	conn, err := rpcutil.Dial(ctrl.Addr(), DefaultCallTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	n := newSimNode(t, spec, 0)
	n.env.ObserveInto(n.obs)
	var reg RegisterNodeReply
	if err := conn.Call("Controller.Register", &RegisterNodeArgs{NodeID: n.id}, &reg); err != nil {
		t.Fatal(err)
	}
	report := ReportArgs{NodeID: n.id, Epoch: reg.Epoch, Obs: n.obs, Traffic: n.env.LastTraffic()}
	var reply ReportReply
	allocs := testing.AllocsPerRun(200, func() {
		if err := conn.Call("Controller.Report", &report, &reply); err != nil || reply.Hold {
			t.Fatalf("report: hold=%v, %v", reply.Hold, err)
		}
	})
	if allocs > reportAllocBudget {
		t.Errorf("a steady report costs %.1f allocations, budget %d", allocs, reportAllocBudget)
	}
}

// The controller's own part of a steady report, called in process,
// allocates nothing: the decision runs on pooled scratch, and the
// reply's config is the stored last-known-good.
func TestSteadyReportAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	ctrl, sims := benchFleet(t, 1, false)
	var reply ReportReply
	allocs := testing.AllocsPerRun(200, func() {
		if err := reportOnce(ctrl, sims[0], &reply); err != nil || reply.Hold {
			t.Fatalf("report: hold=%v, %v", reply.Hold, err)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady report costs the controller %.1f allocations, want 0", allocs)
	}
}

// A reply shares the node's stored last-known-good, which a changing
// report replaces rather than rewrites: a config already replied keeps
// its contents.
func TestPolicyReplyOutlivesRecord(t *testing.T) {
	ctrl, sims := benchFleet(t, 1, false)
	n := sims[0]
	first, err := n.step(ctrl)
	if err != nil || first.Source != SourcePolicy {
		t.Fatalf("first report: %+v, %v", first, err)
	}
	want := slices.Clone(first.Config)
	changed := false
	for i := 0; i < 200 && !changed; i++ {
		reply, err := n.step(ctrl)
		if err != nil {
			t.Fatal(err)
		}
		changed = reply.Source == SourcePolicy && !slices.Equal(reply.Config, want)
	}
	if !changed {
		t.Fatal("no report changed the config; test vacuous")
	}
	if !slices.Equal(first.Config, want) {
		t.Errorf("a replied config moved when the record was replaced: %+v, was %+v", first.Config, want)
	}
	if lg := ctrl.LastGood(n.id); slices.Equal(lg, want) {
		t.Errorf("last-known-good %+v was not replaced", lg)
	}
}

// The transport's counters reach a scrape: calls, refused input and
// bytes each way, beside the connection gauge.
func TestTransportMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	ctrl := startController(t, Config{Spec: spec, PolicyPath: writePolicy(t, dir, spec, 7)})
	reg := stats.NewRegistry()
	ctrl.RegisterMetrics(reg)
	agent, err := NewNodeAgent(NodeConfig{NodeID: "node-a", ControllerAddr: ctrl.Addr(), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	for i := 0; i < 3; i++ {
		if err := agent.Step(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// A peer from before the frame: its first bytes are not the preamble.
	old, err := net.Dial("tcp", ctrl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	old.Write([]byte("\x2b\xff\x81\x03\x01\x01\x07Request"))
	old.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := old.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("controller answered a peer with the wrong preamble: %d bytes, %v", n, err)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"greennfv_serve_open_connections 1",
		"greennfv_serve_rpc_calls_total 4", // one Register, three Reports
		"greennfv_serve_rpc_rejected_total 1",
		"# TYPE greennfv_serve_rpc_bytes_in_total counter",
		"# TYPE greennfv_serve_rpc_bytes_out_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	for _, zero := range []string{"greennfv_serve_rpc_bytes_in_total 0\n", "greennfv_serve_rpc_bytes_out_total 0\n"} {
		if strings.Contains(out, zero) {
			t.Errorf("scrape reads %q after three reports", strings.TrimSpace(zero))
		}
	}
}
