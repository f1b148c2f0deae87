// Command bench is the repository's benchmark: four fixed-work
// workloads over the train, serve and sweep paths, seven end-to-end
// metrics each, and — with -trace 1 — a per-layer ledger timed from
// outside, through the layers' public functions. See README.md.
//
//	bash bench/run.sh [-workload NAME] [-seed 17] [-seconds 25] [-trace 1] [-selfcheck] [-statedir DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// workloadNames is the benchmark's workload list, in BENCHMARK.json
// order.
var workloadNames = []string{"train_rr", "serve_steady", "serve_rollout", "sweep_cluster"}

// outDir receives a run's traces and ledgers, relative to the root of
// the checkout, where run.sh starts the binary.
const outDir = "bench/out"

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	selfcheck bool
	statedir  string
}

// bench holds one invocation's shared state: the sizes in force, the
// directory for controller state files and the serving fixture, built
// on first use.
type bench struct {
	opt      options
	sz       sizes
	stateDir string
	fx       *fixture
}

// openStateDir picks where the controllers' state files live. Their
// rewrites are fsynced, and on the reference box's shared disk an
// fsynced 250 KB rewrite took 0.3 ms in one hour and 1.2 ms in the
// next, so by default they go to a private directory on /dev/shm —
// the one place outside the checkout the benchmark touches, removed
// again by the returned function — and the flush is counted
// (serve.state_writes_per_tick), not timed. Without a writable
// /dev/shm they fall back to bench/out/state.
func (b *bench) openStateDir() (remove func(), err error) {
	if b.opt.statedir != "" {
		b.stateDir = b.opt.statedir
		return func() {}, os.MkdirAll(b.stateDir, 0o755)
	}
	if dir, err := os.MkdirTemp("/dev/shm", "greennfv-bench-"); err == nil {
		b.stateDir = dir
		return func() { os.RemoveAll(dir) }, nil
	}
	b.stateDir = filepath.Join(outDir, "state")
	return func() {}, os.MkdirAll(b.stateDir, 0o755)
}

func (b *bench) fixture() (*fixture, error) {
	if b.fx != nil {
		return b.fx, nil
	}
	fx, err := newFixture(b.stateDir, b.opt.seed, b.sz)
	if err != nil {
		return nil, err
	}
	b.fx = fx
	return fx, nil
}

func (b *bench) workload(name string) (*workload, error) {
	switch name {
	case "train_rr":
		return trainRR(b.opt.seed, b.sz), nil
	case "sweep_cluster":
		return sweepCluster(b.opt.seed, b.sz), nil
	case "serve_steady", "serve_rollout":
		fx, err := b.fixture()
		if err != nil {
			return nil, err
		}
		if name == "serve_steady" {
			return serveSteady(fx), nil
		}
		return serveRollout(fx), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// result is the contract's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(attempted, failed int, ms []namedMetric) error {
	r := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range ms {
		r.Metrics[m.name] = m.m
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func firstLineWith(path, prefix string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, prefix) {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// header prints the machine fingerprint every output carries, so that
// history rows can be keyed by machine.
func (b *bench) header() {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte("unknown")
	}
	fmt.Printf("# greennfv bench: cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s state_fs=%s statedir=%s seed=%d pace_floor_ns=%d\n",
		firstLineWith("/proc/cpuinfo", "model name"), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		strings.TrimSpace(string(kernel)), stateFS(b.stateDir), b.stateDir, b.opt.seed, paceFloorNs)
}

// report prints one untraced run for a person: rep and op counts, how
// long it took against the -seconds it was sized for, what the
// machine's pace was, every metric, and beside the three timed ones the
// quartiles of the raw per-rep values, neighbours included.
func report(res *runResult, seconds float64) {
	w := res.w
	infl := summarize(res.column(func(s repSample) float64 { return s.run.inflation() }))
	fmt.Printf("## %s: %d reps x %d ops (%s), %d variant(s), attempted %d, failed %d, took %.1f s (sized for %g s)\n",
		w.name, len(res.samples), w.ops, w.opName, w.variants, res.attempted, res.failed, res.measuredS, seconds)
	fmt.Printf("   pace: probe floor %d ns, inflation p25 %.3f p50 %.3f p75 %.3f\n", paceFloorNs, infl.P25, infl.P50, infl.P75)
	ops := float64(w.ops)
	raw := map[string]dist{
		"setup_s":       summarize(res.column(func(s repSample) float64 { return float64(s.setup.wallNs) / 1e9 })),
		"ops_per_s":     summarize(res.column(func(s repSample) float64 { return ops * 1e9 / float64(s.run.wallNs) })),
		"cpu_us_per_op": summarize(res.column(func(s repSample) float64 { return float64(s.run.cpuNs) / 1e3 / ops })),
	}
	for _, m := range res.endToEnd() {
		fmt.Printf("   %-24s %-12.6g %-8s", m.name, m.m.Value, m.m.Unit)
		if d, ok := raw[m.name]; ok {
			fmt.Printf(" raw reps: p25 %-10.6g p50 %-10.6g p75 %-10.6g", d.P25, d.P50, d.P75)
		}
		fmt.Println()
	}
}

func (b *bench) runOne(name string) error {
	w, err := b.workload(name)
	if err != nil {
		return err
	}
	if b.opt.trace != 0 {
		ms, attempted, failed, err := b.traced(w)
		if err != nil {
			return err
		}
		return printResult(attempted, failed, ms)
	}
	res, err := runWorkload(w)
	if err != nil {
		return err
	}
	report(res, b.opt.seconds)
	return printResult(res.attempted, res.failed, res.endToEnd())
}

func run(opt options) error {
	// One P: the driver, the RPC goroutines and the collector take
	// turns on one thread, so no result depends on how the hypervisor
	// wakes a second vCPU (README.md, "One P").
	runtime.GOMAXPROCS(1)
	b := &bench{opt: opt, sz: fullSizes}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	remove, err := b.openStateDir()
	if err != nil {
		return err
	}
	defer remove()
	// An interrupted run must not leave its state files in /dev/shm.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		remove()
		os.Exit(130)
	}()
	calibratePace()
	b.header()
	if opt.selfcheck {
		return b.selfcheck()
	}
	names := workloadNames
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	for _, name := range names {
		if err := b.runOne(name); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run (default: all four, one after the other)")
	flag.Int64Var(&opt.seed, "seed", 17, "seed the workload's inputs are generated from")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "how long the caller expects one workload's run to measure; a run is a fixed number of reps sized to take this long on the reference box, and reports how long it took")
	flag.IntVar(&opt.trace, "trace", 0, "1: run the traced replicas and layer probes and print the per-layer metrics")
	flag.BoolVar(&opt.selfcheck, "selfcheck", false, "run the untraced benchmark as two back-to-back sets of ten runs and fail if they disagree by more than a metric's bound")
	flag.StringVar(&opt.statedir, "statedir", "", "directory for controller state files (default: a private directory on /dev/shm, removed at exit; bench/out/state without /dev/shm)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	if err := run(opt); err != nil {
		fmt.Fprintf(os.Stderr, "bench: FAILED: %v\n", err)
		os.Exit(1)
	}
}
