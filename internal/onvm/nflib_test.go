package onvm

import (
	"bytes"
	"testing"

	"greennfv/internal/traffic"
)

// frameMbuf builds a pooled mbuf holding a synthesized frame.
func frameMbuf(t *testing.T, p *Mempool, ft traffic.FiveTuple, size int) *Mbuf {
	t.Helper()
	frame, err := traffic.BuildFrame(nil, ft, size)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Get()
	if m == nil {
		t.Fatal("pool exhausted")
	}
	buf, err := m.Reset(len(frame))
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, frame)
	return m
}

func tuple(srcLast byte, dstPort uint16, proto traffic.Proto) traffic.FiveTuple {
	return traffic.FiveTuple{
		SrcIP: [4]byte{10, 0, 0, srcLast}, DstIP: [4]byte{10, 1, 0, 1},
		SrcPort: 4000, DstPort: dstPort, Proto: proto,
	}
}

func TestFirewallRules(t *testing.T) {
	p := MustNewMempool(16)
	fw := NewFirewall([]FirewallRule{
		{DstPortLo: 22, DstPortHi: 22, Action: FirewallDeny},
		{SrcPrefix: [4]byte{10, 0, 0, 0}, SrcPrefixLen: 24, Action: FirewallAccept},
	}, false)

	ssh := frameMbuf(t, p, tuple(1, 22, traffic.ProtoTCP), 64)
	if fw.Handle(ssh) != VerdictDrop {
		t.Error("SSH packet not denied")
	}
	ssh.Free()

	inside := frameMbuf(t, p, tuple(2, 80, traffic.ProtoTCP), 64)
	if fw.Handle(inside) != VerdictForward {
		t.Error("allowed subnet denied")
	}
	inside.Free()

	// Source outside 10.0.0.0/24 hits the default (deny).
	outside := frameMbuf(t, p, traffic.FiveTuple{
		SrcIP: [4]byte{192, 168, 0, 1}, DstIP: [4]byte{10, 1, 0, 1},
		SrcPort: 4000, DstPort: 80, Proto: traffic.ProtoTCP,
	}, 64)
	if fw.Handle(outside) != VerdictDrop {
		t.Error("default-deny not applied")
	}
	outside.Free()

	if fw.denied.Load() != 2 {
		t.Errorf("denied = %d, want 2", fw.denied.Load())
	}
	if fw.Cost().CyclesPerPacket <= 0 {
		t.Error("zero cost model")
	}

	// Malformed (non-IPv4) frames are dropped.
	junk := p.Get()
	_, _ = junk.Reset(64)
	if fw.Handle(junk) != VerdictDrop {
		t.Error("junk frame forwarded")
	}
	junk.Free()
}

func TestFirewallDefaultAccept(t *testing.T) {
	p := MustNewMempool(4)
	fw := NewFirewall(nil, true)
	m := frameMbuf(t, p, tuple(1, 9999, traffic.ProtoUDP), 64)
	if fw.Handle(m) != VerdictForward {
		t.Error("default-accept dropped")
	}
	m.Free()
}

func TestNATRewritesAndChecksums(t *testing.T) {
	p := MustNewMempool(8)
	nat := NewNAT([4]byte{203, 0, 113, 7})
	ft := tuple(5, 80, traffic.ProtoUDP)
	m := frameMbuf(t, p, ft, 128)
	if nat.Handle(m) != VerdictForward {
		t.Fatal("NAT dropped a valid packet")
	}
	got, err := traffic.ParseFrame(m.Data)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != [4]byte{203, 0, 113, 7} {
		t.Errorf("src IP = %v, want external", got.SrcIP)
	}
	if got.SrcPort < 20000 {
		t.Errorf("translated port = %d, want >= 20000", got.SrcPort)
	}
	if !traffic.VerifyIPv4Checksum(m.Data) {
		t.Error("incremental checksum update broke the header")
	}
	firstPort := got.SrcPort
	m.Free()

	// Same flow gets the same binding; a different flow gets a new one.
	m2 := frameMbuf(t, p, ft, 128)
	_ = nat.Handle(m2)
	got2, _ := traffic.ParseFrame(m2.Data)
	if got2.SrcPort != firstPort {
		t.Errorf("binding not stable: %d vs %d", got2.SrcPort, firstPort)
	}
	m2.Free()

	m3 := frameMbuf(t, p, tuple(6, 80, traffic.ProtoUDP), 128)
	_ = nat.Handle(m3)
	got3, _ := traffic.ParseFrame(m3.Data)
	if got3.SrcPort == firstPort {
		t.Error("distinct flows share a binding")
	}
	m3.Free()
	if nat.Bindings() != 2 {
		t.Errorf("bindings = %d, want 2", nat.Bindings())
	}
}

func TestRouterLPMAndTTL(t *testing.T) {
	p := MustNewMempool(8)
	r, err := NewRouter([]Route{
		{Prefix: [4]byte{10, 1, 0, 0}, Bits: 16, Port: 1},
		{Prefix: [4]byte{10, 1, 0, 0}, Bits: 24, Port: 2}, // more specific wins
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if port, ok := r.Lookup([4]byte{10, 1, 0, 77}); !ok || port != 2 {
		t.Errorf("LPM = %d/%v, want 2 (longest prefix)", port, ok)
	}
	if port, ok := r.Lookup([4]byte{10, 1, 5, 1}); !ok || port != 1 {
		t.Errorf("LPM = %d/%v, want 1", port, ok)
	}
	if port, ok := r.Lookup([4]byte{8, 8, 8, 8}); !ok || port != 9 {
		t.Errorf("default = %d/%v, want 9", port, ok)
	}

	m := frameMbuf(t, p, tuple(1, 80, traffic.ProtoUDP), 64)
	ttlBefore := m.Data[14+8]
	if r.Handle(m) != VerdictForward {
		t.Fatal("router dropped a routable packet")
	}
	if m.Data[14+8] != ttlBefore-1 {
		t.Error("TTL not decremented")
	}
	if !traffic.VerifyIPv4Checksum(m.Data) {
		t.Error("TTL checksum patch broke the header")
	}
	if m.Port != 2 {
		t.Errorf("egress port = %d, want 2", m.Port)
	}
	m.Free()

	// TTL 1 expires.
	m2 := frameMbuf(t, p, tuple(1, 80, traffic.ProtoUDP), 64)
	m2.Data[14+8] = 1
	if r.Handle(m2) != VerdictDrop {
		t.Error("expired TTL forwarded")
	}
	if r.ttlExpired.Load() != 1 {
		t.Errorf("ttlExpired = %d", r.ttlExpired.Load())
	}
	m2.Free()

	// No default: unroutable drops.
	r2, _ := NewRouter([]Route{{Prefix: [4]byte{172, 16, 0, 0}, Bits: 12, Port: 1}}, -1)
	m3 := frameMbuf(t, p, tuple(1, 80, traffic.ProtoUDP), 64)
	if r2.Handle(m3) != VerdictDrop {
		t.Error("unroutable packet forwarded without default")
	}
	m3.Free()

	if _, err := NewRouter([]Route{{Bits: 40}}, -1); err == nil {
		t.Error("bad prefix length accepted")
	}
	if _, err := NewRouter(nil, 1<<20); err == nil {
		t.Error("bad default port accepted")
	}
}

func TestIDSSignatures(t *testing.T) {
	p := MustNewMempool(8)
	ids, err := NewIDS([][]byte{[]byte("EVIL"), []byte("attack")}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Payload with a signature → drop in IPS mode.
	m := frameMbuf(t, p, tuple(1, 5000, traffic.ProtoUDP), 256)
	payload := l4Payload(m.Data)
	copy(payload[10:], []byte("xxEVILxx"))
	if ids.Handle(m) != VerdictDrop {
		t.Error("signature not caught")
	}
	if ids.alerts.Load() != 1 {
		t.Errorf("alerts = %d", ids.alerts.Load())
	}
	m.Free()

	// Clean payload forwards.
	m2 := frameMbuf(t, p, tuple(1, 5000, traffic.ProtoUDP), 256)
	if ids.Handle(m2) != VerdictForward {
		t.Error("clean packet dropped")
	}
	m2.Free()

	// Passive mode forwards but alerts.
	passive, _ := NewIDS([][]byte{[]byte("EVIL")}, false)
	m3 := frameMbuf(t, p, tuple(1, 5000, traffic.ProtoUDP), 256)
	copy(l4Payload(m3.Data), []byte("EVIL"))
	if passive.Handle(m3) != VerdictForward {
		t.Error("passive IDS dropped")
	}
	if passive.alerts.Load() != 1 {
		t.Error("passive IDS did not alert")
	}
	m3.Free()

	if _, err := NewIDS(nil, true); err == nil {
		t.Error("empty signature set accepted")
	}
	if _, err := NewIDS([][]byte{{}}, true); err == nil {
		t.Error("empty signature accepted")
	}
}

func TestAhoCorasickMatching(t *testing.T) {
	ac := newAhoCorasick([][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")})
	cases := []struct {
		data string
		want bool
	}{
		{"ushers", true}, // matches "she" and "hers" via failure links
		{"hi", false},
		{"this", true},
		{"", false},
		{"xxhexx", true},
	}
	for _, c := range cases {
		if got := ac.matchesAny([]byte(c.data)); got != c.want {
			t.Errorf("matchesAny(%q) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestCryptoNFRoundTrip(t *testing.T) {
	p := MustNewMempool(8)
	key := bytes.Repeat([]byte{7}, 16)
	c, err := NewCryptoNF(key)
	if err != nil {
		t.Fatal(err)
	}
	m := frameMbuf(t, p, tuple(1, 5000, traffic.ProtoUDP), 512)
	orig := append([]byte(nil), l4Payload(m.Data)...)
	if c.Handle(m) != VerdictForward {
		t.Fatal("crypto dropped")
	}
	enc := l4Payload(m.Data)
	if bytes.Equal(orig, enc) {
		t.Error("payload unchanged after encryption")
	}
	// Headers untouched.
	if !traffic.VerifyIPv4Checksum(m.Data) {
		t.Error("crypto damaged the IP header")
	}
	if c.processed.Load() != 1 {
		t.Errorf("processed = %d", c.processed.Load())
	}
	m.Free()

	if _, err := NewCryptoNF([]byte("short")); err == nil {
		t.Error("bad key accepted")
	}
	// Per-byte cost dominates for crypto.
	if c.Cost().CyclesPerByte <= 0 {
		t.Error("crypto must have per-byte cost")
	}
}

func TestVXLANEncapDecapRoundTrip(t *testing.T) {
	p := MustNewMempool(8)
	enc, err := NewVXLANTunnel(42, false)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := NewVXLANTunnel(42, true)

	m := frameMbuf(t, p, tuple(1, 80, traffic.ProtoUDP), 128)
	orig := append([]byte(nil), m.Data...)
	if enc.Handle(m) != VerdictForward {
		t.Fatal("encap failed")
	}
	if len(m.Data) != 128+8 {
		t.Fatalf("encap len = %d, want 136", len(m.Data))
	}
	if dec.Handle(m) != VerdictForward {
		t.Fatal("decap failed")
	}
	if !bytes.Equal(m.Data, orig) {
		t.Error("encap/decap round trip corrupted the frame")
	}
	m.Free()

	// VNI mismatch drops.
	decWrong, _ := NewVXLANTunnel(43, true)
	m2 := frameMbuf(t, p, tuple(1, 80, traffic.ProtoUDP), 128)
	_ = enc.Handle(m2)
	if decWrong.Handle(m2) != VerdictDrop {
		t.Error("wrong VNI accepted")
	}
	if decWrong.errors.Load() != 1 {
		t.Errorf("errors = %d", decWrong.errors.Load())
	}
	m2.Free()

	if _, err := NewVXLANTunnel(1<<24, false); err == nil {
		t.Error("oversized VNI accepted")
	}
}

func TestMonitorCountsFlows(t *testing.T) {
	p := MustNewMempool(16)
	mo := NewMonitor()
	for i := 0; i < 3; i++ {
		m := frameMbuf(t, p, tuple(1, 80, traffic.ProtoUDP), 64)
		m.Arrival = float64(i)
		if mo.Handle(m) != VerdictForward {
			t.Fatal("monitor dropped")
		}
		m.Free()
	}
	m := frameMbuf(t, p, tuple(2, 80, traffic.ProtoUDP), 128)
	_ = mo.Handle(m)
	m.Free()

	pk, by := mo.pkts.Load(), mo.bytes.Load()
	if pk != 4 || by != 3*64+128 {
		t.Errorf("totals = %d pkts %d bytes", pk, by)
	}
	if mo.FlowCount() != 2 {
		t.Errorf("flows = %d", mo.FlowCount())
	}
	fc, ok := mo.flows[tuple(1, 80, traffic.ProtoUDP)]
	if !ok || fc.Packets != 3 {
		t.Errorf("flow counter = %+v ok=%v", fc, ok)
	}
}

func TestLoadBalancerConsistency(t *testing.T) {
	p := MustNewMempool(64)
	lb, err := NewLoadBalancer(4)
	if err != nil {
		t.Fatal(err)
	}
	// Same flow always lands on the same backend.
	var first uint16
	for i := 0; i < 10; i++ {
		m := frameMbuf(t, p, tuple(9, 80, traffic.ProtoUDP), 64)
		if lb.Handle(m) != VerdictForward {
			t.Fatal("LB dropped")
		}
		if i == 0 {
			first = m.Port
		} else if m.Port != first {
			t.Fatal("flow moved between backends")
		}
		m.Free()
	}
	// Many flows spread across backends.
	for i := 0; i < 40; i++ {
		m := frameMbuf(t, p, tuple(byte(i), uint16(80+i), traffic.ProtoUDP), 64)
		_ = lb.Handle(m)
		m.Free()
	}
	nonEmpty := 0
	for i := range lb.counts {
		if lb.counts[i].Load() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Errorf("poor spread: %d of %d backends used", nonEmpty, len(lb.counts))
	}
	if _, err := NewLoadBalancer(0); err == nil {
		t.Error("zero backends accepted")
	}
}

func TestRateLimiterPolicing(t *testing.T) {
	p := MustNewMempool(64)
	rl, err := NewRateLimiter(10, 2) // 10 pps, burst 2
	if err != nil {
		t.Fatal(err)
	}
	// Burst of 3 at t=0: first 2 pass, third drops.
	verdicts := make([]Verdict, 3)
	for i := range verdicts {
		m := frameMbuf(t, p, tuple(1, 80, traffic.ProtoUDP), 64)
		m.Arrival = 0
		verdicts[i] = rl.Handle(m)
		m.Free()
	}
	if verdicts[0] != VerdictForward || verdicts[1] != VerdictForward || verdicts[2] != VerdictDrop {
		t.Errorf("burst verdicts = %v", verdicts)
	}
	// After a second, 10 tokens refill (capped at burst 2).
	m := frameMbuf(t, p, tuple(1, 80, traffic.ProtoUDP), 64)
	m.Arrival = 1.0
	if rl.Handle(m) != VerdictForward {
		t.Error("refilled bucket still dropping")
	}
	m.Free()
	if rl.drops.Load() != 1 {
		t.Errorf("drops = %d", rl.drops.Load())
	}
	if _, err := NewRateLimiter(0, 1); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestDPIClassification(t *testing.T) {
	p := MustNewMempool(16)
	d := NewDPI()
	cases := []struct {
		port  uint16
		class string
	}{
		{53, "dns"}, {443, "tls"}, {80, "http"}, {9999, "other"},
	}
	for _, c := range cases {
		m := frameMbuf(t, p, tuple(1, c.port, traffic.ProtoUDP), 128)
		if d.Handle(m) != VerdictForward {
			t.Fatal("DPI dropped")
		}
		m.Free()
	}
	// Payload heuristic: HTTP GET on a non-standard port.
	m := frameMbuf(t, p, tuple(1, 8080, traffic.ProtoTCP), 256)
	copy(l4Payload(m.Data), []byte("GET /index.html"))
	_ = d.Handle(m)
	m.Free()

	for class, want := range map[string]uint64{"dns": 1, "tls": 1, "http": 2, "other": 1} {
		if got := d.counts[class].Load(); got != want {
			t.Errorf("%s count = %d, want %d", class, got, want)
		}
	}
}

// All library NFs must declare positive per-packet cost so the
// performance model never divides by zero.
func TestAllCostModelsPositive(t *testing.T) {
	lb, _ := NewLoadBalancer(2)
	rl, _ := NewRateLimiter(1000, 10)
	ids, _ := NewIDS([][]byte{[]byte("x")}, false)
	c, _ := NewCryptoNF(bytes.Repeat([]byte{1}, 16))
	vx, _ := NewVXLANTunnel(1, false)
	rt, _ := NewRouter(nil, 0)
	handlers := []Handler{
		NewFirewall(nil, true), NewNAT([4]byte{1, 2, 3, 4}), rt,
		ids, c, vx, NewMonitor(), lb, rl, NewDPI(),
	}
	for _, h := range handlers {
		cm := h.Cost()
		if cm.CyclesPerPacket <= 0 {
			t.Errorf("%s: non-positive per-packet cycles", h.Name())
		}
		if cm.StateBytes <= 0 {
			t.Errorf("%s: non-positive state size", h.Name())
		}
		if h.Name() == "" {
			t.Error("unnamed handler")
		}
	}
}
