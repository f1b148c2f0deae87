package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestQuantiles(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	if got := median(v); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := quantile(v, 0.25); got != 3 {
		t.Errorf("p25 = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if v[0] != 9 {
		t.Error("quantile sorted its argument in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) in Python.
	q1, q2, q3 := pyQuartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("pyQuartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got := worsening(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worsening(higher) = %v, want 0.1", got)
	}
	if got := worsening(100, 90, "lower"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("worsening(lower) = %v, want -0.1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op [0,100] has children a [10,40] and b [50,70]; a has child c [20,25].
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "c", Start: 20, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 70},
		{ID: 5, Name: "op", Start: 100, End: 130},
	}
	lts := selfTimes(spans)
	want := map[string][3]float64{ // count, total ns, self ns
		"op": {2, 130, 80}, "a": {1, 30, 25}, "b": {1, 20, 20}, "c": {1, 5, 5},
	}
	var selfSum float64
	for _, lt := range lts {
		w := want[lt.name]
		if float64(lt.count) != w[0] || math.Abs(lt.totalS*1e9-w[1]) > 1e-6 || math.Abs(lt.selfS*1e9-w[2]) > 1e-6 {
			t.Errorf("%s: count %d total %v self %v, want %v", lt.name, lt.count, lt.totalS*1e9, lt.selfS*1e9, w)
		}
		selfSum += lt.selfS * 1e9
	}
	if math.Abs(selfSum-130) > 1e-6 {
		t.Errorf("self times sum to %v, want the root spans' 130", selfSum)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.nextTrace()
	op := r.begin("op")
	a := r.begin("a")
	r.end(a)
	r.end(op)
	if r.spans[1].Parent != op || r.spans[0].Parent != 0 || r.spans[1].Trace != 1 {
		t.Errorf("bad nesting: %+v", r.spans)
	}
	var none *recorder
	none.nextTrace()
	none.end(none.begin("x")) // a nil recorder records nothing and must not panic
}

func TestTraceRoundTrip(t *testing.T) {
	spans := []span{{ID: 1, Trace: 7, Name: "serve.tick", Start: 5, End: 90}, {ID: 2, Parent: 1, Trace: 7, Name: "env.observe", Start: 6, End: 8}}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	got, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) || got[0] != spans[0] || got[1] != spans[1] {
		t.Errorf("round trip = %+v, want %+v", got, spans)
	}
}

func TestLedgerRowsSumToTotal(t *testing.T) {
	l := ledger{tracedUS: 100, realUS: 95}
	l.add("x", 30, "span")
	l.add("y", 45.5, "probe")
	if rest := l.close("gap", ""); math.Abs(rest-24.5) > 1e-9 {
		t.Errorf("gap = %v, want 24.5", rest)
	}
	var sum float64
	for _, r := range l.rows {
		sum += r.us
	}
	if math.Abs(sum-l.tracedUS) > 1e-9 {
		t.Errorf("rows sum to %v, want %v", sum, l.tracedUS)
	}
	if !strings.Contains(l.render(), "| gap | 24.500 |") {
		t.Errorf("gap row missing from:\n%s", l.render())
	}
}

func TestTrainReplicaEqualsEntryPoint(t *testing.T) {
	if err := checkTrainReplica(deriveSeed(17, 0), shortSizes.trainSteps); err != nil {
		t.Fatal(err)
	}
}

func shortFixture(t *testing.T) *fixture {
	t.Helper()
	fx, err := newFixture(t.TempDir(), 17, shortSizes)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestServeReplicaEqualsEntryPoint(t *testing.T) {
	if err := checkServeReplica(shortFixture(t), 6); err != nil {
		t.Fatal(err)
	}
}

// The state-file check must catch a controller that serves configs it
// did not persist.
func TestStateRoundTripCheck(t *testing.T) {
	fx := shortFixture(t)
	f, err := stagedFleet(fx, "roundtrip", fx.sz.rolloutPeriod, newAgentNode)
	if err != nil {
		t.Fatal(err)
	}
	f.rounds = fx.sz.rolloutPeriod * fx.sz.rolloutReloads / fx.sz.fleet
	if failed, err := f.run(); err != nil || failed != 0 {
		t.Fatalf("run: %d failed, %v", failed, err)
	}
	if err := f.stop(); err != nil {
		t.Fatal(err)
	}
	if err := f.verifyState(); err != nil {
		t.Fatalf("honest state rejected: %v", err)
	}
	// Lose the run's writes: put the seed state back.
	if err := copyFile(f.statePath, fx.seedState); err != nil {
		t.Fatal(err)
	}
	if err := f.verifyState(); err == nil {
		t.Error("state file without the run's writes passed the check")
	}
	// A leftover temp file is a writer that died mid-rewrite.
	if err := os.WriteFile(filepath.Join(fx.dir, ".roundtrip.state.tmp-123"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.verifyState(); err == nil || !strings.Contains(err.Error(), "stray") {
		t.Errorf("stray temp file not reported: %v", err)
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	b := &bench{opt: options{seed: 17}, sz: shortSizes, stateDir: t.TempDir()}
	for _, name := range workloadNames {
		w, err := b.workload(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", name, len(w.why))
		}
		if w.reps < 2*w.variants {
			t.Errorf("%s: %d reps do not check every one of %d variants for determinism", name, w.reps, w.variants)
		}
		res, err := runWorkload(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 || res.attempted != w.ops*w.reps {
			t.Errorf("%s: attempted %d failed %d", name, res.attempted, res.failed)
		}
		ms := res.endToEnd()
		if len(ms) != len(e2eSpecs) {
			t.Fatalf("%s: %d metrics, want %d", name, len(ms), len(e2eSpecs))
		}
		for i, m := range ms {
			if m.name != e2eSpecs[i].name || m.m.Unit != e2eSpecs[i].unit {
				t.Errorf("%s: metric %d is %s [%s], want %s [%s]", name, i, m.name, m.m.Unit, e2eSpecs[i].name, e2eSpecs[i].unit)
			}
			if !(m.m.Value > 0) || math.IsInf(m.m.Value, 0) {
				t.Errorf("%s: %s = %v, want finite and positive", name, m.name, m.m.Value)
			}
		}
	}
}

// fakeInstance is a workload whose output changes from rep to rep.
type fakeInstance struct{ n *int }

func (f fakeInstance) warm() error       { return nil }
func (f fakeInstance) run() (int, error) { *f.n++; return 0, nil }
func (f fakeInstance) close() error      { return nil }
func (f fakeInstance) outputs() (outputs, error) {
	return outputs{efficiency: 1, counts: []count{{"fake.reps", float64(*f.n)}}}, nil
}

func TestRepMismatchAborts(t *testing.T) {
	n := 0
	w := &workload{name: "fake", ops: 1, reps: 2, variants: 1, build: func(int) (instance, error) {
		return fakeInstance{&n}, nil
	}}
	_, err := runWorkload(w)
	if err == nil || !strings.Contains(err.Error(), "fake.reps: 1 vs fake.reps: 2") {
		t.Errorf("rep mismatch not reported with both values: %v", err)
	}
}

// No clock may decide how much work a workload does: timers, tickers
// and deadlines are banned from the benchmark's sources, and so is any
// comparison of elapsed time, which is how a loop would be time-boxed.
func TestNoDurationDecidesWork(t *testing.T) {
	banned := regexp.MustCompile(`time\.(After|AfterFunc|NewTimer|NewTicker|Tick|Sleep)\(|context\.With(Timeout|Deadline)|SetDeadline|\.Deadline\(|` +
		`time\.(Since|Until)\([^)]*\)\s*[<>]|[<>]=?\s*time\.(Since|Until)\(|\.(Before|After)\(|\.seconds\s*[<>]|[<>]=?\s*\S*\.seconds\b`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			line, _, _ = strings.Cut(line, "//")
			if banned.MatchString(line) {
				t.Errorf("%s:%d: a clock decides work: %s", f, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// update rewrites BENCHMARK.json from the tables the benchmark reports
// with: go test -run TestBenchmarkJSONInSync -update
var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the benchmark's own tables")

// describe renders BENCHMARK.json from the tables the benchmark itself
// reports with, so the two cannot drift apart.
func describe() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	fx := &fixture{sz: fullSizes}
	for _, w := range []*workload{trainRR(0, fullSizes), serveSteady(fx), serveRollout(fx), sweepCluster(0, fullSizes)} {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, s := range e2eSpecs {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{s.name, s.unit, s.better, s.bound})
	}
	for _, s := range perLayerSpecs {
		doc.PerLayer = append(doc.PerLayer, layerJSON{s.name, s.unit, s.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the benchmark's own tables; regenerate it with -update")
	}
	names := map[string]bool{}
	for _, s := range perLayerSpecs {
		if names[s.name] {
			t.Errorf("per-layer metric %s listed twice", s.name)
		}
		names[s.name] = true
	}
	if len(perLayerSpecs) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayerSpecs))
	}
}
