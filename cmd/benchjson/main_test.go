package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestParseStripsGOMAXPROCSSuffix: parallel benchmarks print as
// BenchmarkName-N with N = GOMAXPROCS, which varies by machine. The
// parser must fold them onto the suffix-free key so
// BenchmarkControllerReport/parallel/nodes=8 aggregates stably across
// machines —
// while names whose legitimate tail looks dash-numeric keep
// everything but the final GOMAXPROCS suffix.
func TestParseStripsGOMAXPROCSSuffix(t *testing.T) {
	input := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
		"BenchmarkControllerReport/parallel/nodes=8-8   \t    2000\t      2712 ns/op",
		"BenchmarkFig06TrainMaxThroughput \t       1\t 365775750 ns/op\t         0.7394 Gbps\t      1226 J",
		"BenchmarkAgentLearn-16 \t    7154\t    300315 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkDot4-2x-8 \t     100\t      1234 ns/op",
		"PASS",
	}, "\n")
	sum, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"BenchmarkControllerReport/parallel/nodes=8": true,
		"BenchmarkFig06TrainMaxThroughput":           true,
		"BenchmarkAgentLearn":                        true,
		"BenchmarkDot4-2x":                           true,
	}
	if len(sum.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(sum.Benchmarks), len(want))
	}
	for _, b := range sum.Benchmarks {
		if !want[b.Name] {
			t.Errorf("unexpected benchmark name %q (suffix not stripped?)", b.Name)
		}
		delete(want, b.Name)
	}
	for name := range want {
		t.Errorf("missing benchmark %q", name)
	}

	// Metrics survive alongside the stripped name.
	for _, b := range sum.Benchmarks {
		if b.Name == "BenchmarkAgentLearn" {
			if b.Metrics["allocs/op"] != 0 || b.Metrics["B/op"] != 0 {
				t.Errorf("AgentLearn metrics = %v", b.Metrics)
			}
		}
		if b.Name == "BenchmarkFig06TrainMaxThroughput" {
			if b.Metrics["Gbps"] != 0.7394 {
				t.Errorf("Gbps metric = %v", b.Metrics["Gbps"])
			}
		}
	}
	if sum.CPU == "" || sum.GoOS != "linux" {
		t.Errorf("header not parsed: %+v", sum)
	}
}

// TestCompareGate: the regression gate flags only matched benchmarks
// that slowed beyond the threshold.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	baseline := dir + "/base.json"
	base := &Summary{Benchmarks: []Benchmark{
		{Name: "BenchmarkFig06TrainMaxThroughput", NsPerOp: 100e6},
		{Name: "BenchmarkFig07TrainMinEnergy", NsPerOp: 200e6},
		{Name: "BenchmarkAgentLearn", NsPerOp: 300e3},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cur := &Summary{Benchmarks: []Benchmark{
		{Name: "BenchmarkFig06TrainMaxThroughput", NsPerOp: 60e6}, // improved
		{Name: "BenchmarkFig07TrainMinEnergy", NsPerOp: 240e6},    // +20%: regressed
		{Name: "BenchmarkAgentLearn", NsPerOp: 900e3},             // filtered out by -match Fig
		{Name: "BenchmarkFigNew", NsPerOp: 1},                     // no baseline: skipped
	}}
	var buf bytes.Buffer
	n, err := compare(&buf, baseline, cur, "Fig", 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("regressions = %d, want 1\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Errorf("report missing REGRESSED marker:\n%s", buf.String())
	}

	n, err = compare(&buf, baseline, cur, "Fig", 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("regressions at 50%% threshold = %d, want 0", n)
	}
}
