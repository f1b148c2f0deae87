package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLineRatePPS(t *testing.T) {
	// The canonical numbers every NFV paper quotes for 10 GbE.
	got64 := LineRatePPS(10e9, 64)
	if math.Abs(got64-14880952.38) > 1 {
		t.Errorf("64B line rate = %v pps, want ~14.88M", got64)
	}
	got1518 := LineRatePPS(10e9, 1518)
	if math.Abs(got1518-812743.82) > 1 {
		t.Errorf("1518B line rate = %v pps, want ~812.7K", got1518)
	}
	// Undersized frames clamp to the 64 B minimum.
	if LineRatePPS(10e9, 10) != got64 {
		t.Error("undersized frame did not clamp")
	}
}

func TestThroughputBps(t *testing.T) {
	// 812743 pps of 1518 B frames is ~9.87 Gbps goodput.
	bps := ThroughputBps(LineRatePPS(10e9, 1518), 1518)
	if bps < 9.8e9 || bps > 9.9e9 {
		t.Errorf("1518B goodput = %v, want ~9.87G", bps)
	}
}

func TestBuildParseRoundTrip(t *testing.T) {
	ft := FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 1, 0, 1},
		SrcPort: 1234, DstPort: 80, Proto: ProtoUDP,
	}
	for _, size := range []int{64, 128, 512, 1024, 1518} {
		frame, err := BuildFrame(nil, ft, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(frame) != size {
			t.Fatalf("size %d: frame is %d bytes", size, len(frame))
		}
		got, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("size %d parse: %v", size, err)
		}
		if got != ft {
			t.Errorf("size %d: round trip %v != %v", size, got, ft)
		}
		if !VerifyIPv4Checksum(frame) {
			t.Errorf("size %d: bad IPv4 checksum", size)
		}
	}
}

func TestBuildFrameTCP(t *testing.T) {
	ft := FiveTuple{SrcPort: 5000, DstPort: 443, Proto: ProtoTCP}
	frame, err := BuildFrame(nil, ft, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseFrame(frame)
	if err != nil || got.Proto != ProtoTCP || got.DstPort != 443 {
		t.Errorf("TCP round trip = %v (%v)", got, err)
	}
}

func TestBuildFrameReusesBuffer(t *testing.T) {
	ft := FiveTuple{Proto: ProtoUDP}
	buf := make([]byte, 1518)
	frame, err := BuildFrame(buf, ft, 256)
	if err != nil {
		t.Fatal(err)
	}
	if &frame[0] != &buf[0] {
		t.Error("BuildFrame allocated despite sufficient buffer")
	}
}

func TestBuildFrameRejectsBadSizes(t *testing.T) {
	ft := FiveTuple{Proto: ProtoUDP}
	if _, err := BuildFrame(nil, ft, 63); err == nil {
		t.Error("63B frame accepted")
	}
	if _, err := BuildFrame(nil, ft, 1519); err == nil {
		t.Error("1519B frame accepted")
	}
}

func TestParseFrameErrors(t *testing.T) {
	if _, err := ParseFrame(make([]byte, 10)); err == nil {
		t.Error("short frame accepted")
	}
	junk := make([]byte, 64) // zero ethertype
	if _, err := ParseFrame(junk); err == nil {
		t.Error("non-IPv4 frame accepted")
	}
	if VerifyIPv4Checksum(make([]byte, 8)) {
		t.Error("short frame checksum verified")
	}
}

func TestCBRPacing(t *testing.T) {
	c, err := NewCBR(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Next(nil); got != 0.001 {
		t.Errorf("CBR gap = %v, want 0.001", got)
	}
	if c.MeanPPS() != 1000 {
		t.Errorf("CBR mean = %v", c.MeanPPS())
	}
	if _, err := NewCBR(0); err == nil {
		t.Error("zero-rate CBR accepted")
	}
}

func TestPoissonMeanRate(t *testing.T) {
	p, err := NewPoisson(5000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var total float64
	n := 50000
	for i := 0; i < n; i++ {
		total += p.Next(rng)
	}
	rate := float64(n) / total
	if math.Abs(rate-5000)/5000 > 0.03 {
		t.Errorf("Poisson empirical rate = %v, want ~5000", rate)
	}
	if _, err := NewPoisson(-1); err == nil {
		t.Error("negative-rate Poisson accepted")
	}
}

func TestMMPPMeanAndBurstiness(t *testing.T) {
	m, err := NewMMPP(10000, 500, 0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 0.25*10000 + 0.75*500
	if math.Abs(m.MeanPPS()-wantMean) > 1e-9 {
		t.Errorf("MMPP mean = %v, want %v", m.MeanPPS(), wantMean)
	}
	// The rate estimate converges slowly (one effective sample per
	// burst cycle), so use a long run and a loose tolerance.
	rng := rand.New(rand.NewSource(17))
	var total float64
	n := 1000000
	for i := 0; i < n; i++ {
		total += m.Next(rng)
	}
	rate := float64(n) / total
	if math.Abs(rate-wantMean)/wantMean > 0.12 {
		t.Errorf("MMPP empirical rate = %v, want ~%v", rate, wantMean)
	}
	if _, err := NewMMPP(0, 1, 1, 1); err == nil {
		t.Error("bad MMPP accepted")
	}
	if _, err := NewMMPP(1, 1, 0, 1); err == nil {
		t.Error("zero sojourn accepted")
	}
}

func TestOnOffDutyCycle(t *testing.T) {
	o, err := NewOnOff(1000, 1, 3) // 25% duty
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.MeanPPS()-250) > 1e-9 {
		t.Errorf("on/off mean = %v, want 250", o.MeanPPS())
	}
	// Advance through a full cycle and verify the empirical rate.
	var total float64
	n := 5000
	for i := 0; i < n; i++ {
		total += o.Next(nil)
	}
	rate := float64(n) / total
	if math.Abs(rate-250)/250 > 0.05 {
		t.Errorf("on/off empirical rate = %v, want ~250", rate)
	}
	if _, err := NewOnOff(0, 1, 1); err == nil {
		t.Error("bad on/off accepted")
	}
}

func TestGeneratorTimeOrdered(t *testing.T) {
	f1, _ := SimpleFlow(1, 1000, 64)
	f2, _ := SimpleFlow(2, 333, 1518)
	g, err := NewGenerator(9, f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		ev := g.Next()
		if ev.Time < last {
			t.Fatalf("event %d out of order: %v < %v", i, ev.Time, last)
		}
		last = ev.Time
		counts[ev.Flow.Name]++
		if len(ev.Frame) != ev.Flow.FrameBytes {
			t.Fatalf("frame size %d != flow %d", len(ev.Frame), ev.Flow.FrameBytes)
		}
	}
	// Rate ratio should be ~3:1.
	ratio := float64(counts["flow1"]) / float64(counts["flow2"])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("flow ratio = %v, want ~3", ratio)
	}
	if g.now != last {
		t.Errorf("now = %v, want %v", g.now, last)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(1); err == nil {
		t.Error("empty generator accepted")
	}
	bad := &Flow{Name: "x", FrameBytes: 64} // no arrival
	if _, err := NewGenerator(1, bad); err == nil {
		t.Error("flow without arrival accepted")
	}
	cbr, _ := NewCBR(1)
	bad2 := &Flow{Name: "y", FrameBytes: 3000, Arrival: cbr}
	if _, err := NewGenerator(1, bad2); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestSimpleFlowDeterministicTuple(t *testing.T) {
	f, err := SimpleFlow(7, 100, 128)
	if err != nil {
		t.Fatal(err)
	}
	if f.Tuple.SrcPort != 1031 || f.Tuple.SrcIP != [4]byte{10, 0, 0, 7} {
		t.Errorf("tuple = %v", f.Tuple)
	}
	if bps := ThroughputBps(f.Arrival.MeanPPS(), f.FrameBytes); bps != 100*128*8 {
		t.Errorf("offered bps = %v", bps)
	}
	if _, err := SimpleFlow(1, -5, 128); err == nil {
		t.Error("negative rate accepted")
	}
}

// Property: all arrival processes produce strictly positive gaps and
// the generator's event clock is monotone for any seed.
func TestArrivalGapsPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := NewPoisson(10000)
		m, _ := NewMMPP(20000, 100, 0.05, 0.2)
		o, _ := NewOnOff(5000, 0.5, 0.5)
		for i := 0; i < 200; i++ {
			if p.Next(rng) < 0 || m.Next(rng) <= 0 || o.Next(rng) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
