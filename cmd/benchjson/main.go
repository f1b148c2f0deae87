// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON summary, so CI can track the per-figure
// wall-clock trajectory across PRs (BENCH_PR2.json and successors)
// without parsing benchmark text in shell.
//
// It also carries the CI regression gate: -compare diffs the parsed
// results against a previous summary and fails the run when any
// matched benchmark slowed down beyond the threshold.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime=1x . | go run ./cmd/benchjson -o BENCH_PR3.json
//	go run ./cmd/benchjson -o BENCH_PR3.json bench.txt
//	go run ./cmd/benchjson -o BENCH_PR3.json -compare BENCH_PR2.json -max-regress 0.15 -match Fig bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	MsPerOp    float64 `json:"ms_per_op"`
	// Metrics holds b.ReportMetric custom units (e.g. "Gbps",
	// "MaxT-speedup") and, with -benchmem, B/op and allocs/op.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Summary is the emitted document.
type Summary struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8   12   3456 ns/op   <metrics...>";
// the -N GOMAXPROCS suffix is stripped from the name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("compare", "", "baseline JSON summary to diff against; regressions beyond -max-regress fail the run")
	maxRegress := flag.Float64("max-regress", 0.15, "allowed fractional ns/op slowdown per benchmark before -compare fails")
	match := flag.String("match", "", "substring filter selecting which benchmarks the -compare gate applies to (empty = all)")
	minMs := flag.Float64("min-ms", 0, "ignore baseline benchmarks faster than this many ms in -compare (single-iteration runs of µs-scale benchmarks are pure noise)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	sum, err := parse(in)
	if err != nil {
		log.Fatal(err)
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(sum.Benchmarks), *out)
	}
	if *baseline != "" {
		// The report goes to stderr so the JSON summary on stdout
		// (when -o is unset) stays machine-parseable.
		regressions, err := compare(os.Stderr, *baseline, sum, *match, *maxRegress, *minMs)
		if err != nil {
			log.Fatal(err)
		}
		if regressions > 0 {
			log.Fatalf("%d benchmark(s) regressed more than %.0f%% vs %s",
				regressions, *maxRegress*100, *baseline)
		}
	}
}

// compare diffs the current summary against a baseline JSON file and
// reports the per-benchmark ns/op delta for every benchmark present
// in both, matching the filter and at least minMs in the baseline.
// It returns how many exceeded the allowed slowdown.
func compare(w io.Writer, baselinePath string, cur *Summary, match string, maxRegress, minMs float64) (int, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return 0, err
	}
	var base Summary
	if err := json.Unmarshal(data, &base); err != nil {
		return 0, fmt.Errorf("%s: %w", baselinePath, err)
	}
	old := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b.NsPerOp
	}
	regressions := 0
	for _, b := range cur.Benchmarks {
		if match != "" && !strings.Contains(b.Name, match) {
			continue
		}
		prev, ok := old[b.Name]
		if !ok || prev <= 0 || prev < minMs*1e6 {
			continue
		}
		delta := (b.NsPerOp - prev) / prev
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSED"
			regressions++
		}
		fmt.Fprintf(w, "%-40s %12.2fms -> %12.2fms  %+6.1f%%  %s\n",
			b.Name, prev/1e6, b.NsPerOp/1e6, delta*100, status)
	}
	return regressions, nil
}

func parse(r io.Reader) (*Summary, error) {
	sum := &Summary{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			sum.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			sum.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			sum.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		b := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns, MsPerOp: ns / 1e6}
		// Trailing "<value> <unit>" pairs: custom metrics and -benchmem.
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[fields[i+1]] = v
		}
		sum.Benchmarks = append(sum.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return sum, nil
}
