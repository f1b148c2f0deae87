package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// count is one exact, deterministic output of a rep (a controller
// counter, a learner update count, ...). Two reps of the same variant
// must agree on every one of them bit for bit.
type count struct {
	name  string
	value float64
}

// outputs is everything a rep produced that must repeat exactly.
type outputs struct {
	// efficiency is the paper's λ (Gbps per kJ) for what the rep
	// produced.
	efficiency float64
	counts     []count
}

// The pace probe is a fixed piece of the benchmark's own arithmetic on
// a buffer that fits the L1 cache. How long it takes says how fast the
// core is running right now, whatever the repository's code does: on
// the reference box it takes 38 µs when the core is undisturbed and
// more than twice that while the host's other tenants are busy
// (README.md, "The pace clock").
var (
	paceBuf  [512]float64
	paceSink float64
)

func paceProbe() {
	var a0, a1, a2, a3 float64
	for it := 0; it < 250; it++ {
		for i := 0; i < len(paceBuf); i += 4 {
			a0 += paceBuf[i] * 1.0000001
			a1 += paceBuf[i+1] * 1.0000002
			a2 += paceBuf[i+2] * 1.0000003
			a3 += paceBuf[i+3] * 1.0000004
		}
	}
	paceSink += a0 + a1 + a2 + a3
}

// paceFloorNs is the fastest probe this process has timed: what the
// probe takes on this machine when nothing disturbs the core. It is the
// unit every pace sample is read in, so no constant of one machine or
// one compiler enters a reported time. It belongs to the one driver
// goroutine and only ever falls.
var paceFloorNs int64 = math.MaxInt64

// samplePace runs n probes back to back and returns their mean
// duration in ns.
func samplePace(n int) float64 {
	var sum int64
	t := time.Now()
	for i := 0; i < n; i++ {
		paceProbe()
		u := time.Now()
		d := int64(u.Sub(t))
		sum += d
		paceFloorNs = min(paceFloorNs, d)
		t = u
	}
	return float64(sum) / float64(n)
}

// calibratePace finds the floor before anything is measured. Left
// alone, the probe repeats within 0.3%, so a floor is believed once 64
// probes have come within 0.5% of it: that takes 0.3 s on a machine at
// its usual pace, and when the neighbours leave the core no quiet
// moment at all (seen once in a hundred runs on the reference box, for
// about a minute) calibration goes on for up to 64 blocks (3 to 5 s)
// waiting for one. Every later sample can still lower the floor.
func calibratePace() {
	const block, blocks, confirm = 1024, 64, 64
	seen := make([]int64, 0, block*blocks)
	for b := 0; b < blocks; b++ {
		t := time.Now()
		for i := 0; i < block; i++ {
			paceProbe()
			u := time.Now()
			d := int64(u.Sub(t))
			seen = append(seen, d)
			paceFloorNs = min(paceFloorNs, d)
			t = u
		}
		near := 0
		for _, d := range seen {
			if float64(d) <= 1.005*float64(paceFloorNs) {
				near++
			}
		}
		if b >= 7 && near >= confirm {
			return
		}
	}
}

// timing is one timed section and the pace sampled either side of it.
// The code under measurement knows nothing of the probes: they run
// before the section's clocks start and after they stop.
type timing struct {
	wallNs  int64
	cpuNs   int64   // process CPU time (user+sys) of the section
	probeNs float64 // mean probe duration just before and just after
}

// inflation is how much slower than undisturbed the machine ran around
// the section: 1 when every probe took the floor.
func (t timing) inflation() float64 { return t.probeNs / float64(paceFloorNs) }

// us is the section's wall time in µs at the undisturbed pace.
func (t timing) us() float64 { return float64(t.wallNs) / 1e3 / t.inflation() }

const (
	// repSide probes (2.5 ms) are taken either side of a rep's timed
	// section, which lasts 0.3 to 1 s; shortSide (0.3 ms) either side
	// of a set-up or a layer probe's batch, which last milliseconds.
	repSide   = 64
	shortSide = 8
)

// timed runs f between two pace samples of side probes each.
func timed(side int, f func() error) (timing, error) {
	before := samplePace(side)
	c0, w0 := cpuNs(), time.Now()
	err := f()
	wall, cpu := time.Since(w0), cpuNs()-c0
	return timing{wallNs: int64(wall), cpuNs: cpu, probeNs: (before + samplePace(side)) / 2}, err
}

// cpuNs reads the process CPU clock (user+sys of all threads) at
// nanosecond resolution; getrusage truncates to microseconds.
func cpuNs() int64 {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// instance is one cold-built copy of a workload's system under test.
type instance interface {
	// warm runs the discarded warm-up.
	warm() error
	// run executes the rep's fixed work and returns how many of its ops
	// failed.
	run() (failed int, err error)
	// outputs runs the rep's correctness checks and returns its
	// deterministic outputs. The instance stays alive afterwards (the
	// harness reads the live heap with it still referenced).
	outputs() (outputs, error)
	// close tears the instance down and runs the checks that need a
	// stopped system (the persisted state round-trip).
	close() error
}

// workload is one of the benchmark's fixed-work units. A run is reps
// reps; rep r builds variant r % variants. Variants differ only in the
// seed derived for them, so that the run's efficiency is a mean over
// several seeds (a single short training run's policy quality varies
// ±20% with its seed) while every variant still repeats exactly.
type workload struct {
	name string
	why  string
	// ops is the number of operations in one rep, opName what one is.
	ops    int
	opName string
	// reps is the run's fixed rep count, a multiple of variants so that
	// every variant weighs the same in every mean.
	reps     int
	variants int
	// stage, when set, does the load generator's preparation for a rep
	// (staging the seed state file): kept out of setup_s.
	stage func() error
	// build cold-constructs variant v through public constructors; the
	// time it takes is one setup_s sample.
	build func(v int) (instance, error)
}

// repSample is what the harness measured around one rep.
type repSample struct {
	setup, run timing
	mallocs    uint64
	bytes      uint64
	heapMB     float64
}

// runResult is one run of one workload.
type runResult struct {
	w         *workload
	samples   []repSample
	attempted int
	failed    int
	// perVariant holds each variant's outputs (first occurrence).
	perVariant []outputs
	// measuredS is the wall time the run took, set-up and checks
	// included.
	measuredS float64
}

// sameOutputs reports the first deterministic output on which two reps
// of one variant disagree.
func sameOutputs(a, b outputs) error {
	if math.Float64bits(a.efficiency) != math.Float64bits(b.efficiency) {
		return fmt.Errorf("efficiency_gbps_per_kj: %v vs %v", a.efficiency, b.efficiency)
	}
	if len(a.counts) != len(b.counts) {
		return fmt.Errorf("%d counts vs %d", len(a.counts), len(b.counts))
	}
	for i := range a.counts {
		if a.counts[i].name != b.counts[i].name ||
			math.Float64bits(a.counts[i].value) != math.Float64bits(b.counts[i].value) {
			return fmt.Errorf("%s: %v vs %s: %v", a.counts[i].name, a.counts[i].value, b.counts[i].name, b.counts[i].value)
		}
	}
	return nil
}

// runWorkload does the workload's fixed work: w.reps reps, whatever
// the clock says.
func runWorkload(w *workload) (*runResult, error) {
	if w.reps <= 0 || w.reps%w.variants != 0 {
		return nil, fmt.Errorf("%s: %d reps is not a positive multiple of its %d variants", w.name, w.reps, w.variants)
	}
	res := &runResult{w: w, perVariant: make([]outputs, w.variants)}
	start := time.Now()
	for r := 0; r < w.reps; r++ {
		v := r % w.variants
		runtime.GC()
		if w.stage != nil {
			if err := w.stage(); err != nil {
				return nil, fmt.Errorf("%s rep %d: staging: %w", w.name, r, err)
			}
		}
		var inst instance
		setup, err := timed(shortSide, func() (err error) {
			inst, err = w.build(v)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: set-up: %w", w.name, r, err)
		}
		if err := inst.warm(); err != nil {
			return nil, fmt.Errorf("%s rep %d: warm-up: %w", w.name, r, err)
		}
		var m0, m1 runtime.MemStats
		var failed int
		runtime.ReadMemStats(&m0)
		run, err := timed(repSide, func() (err error) {
			failed, err = inst.run()
			return err
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.name, r, err)
		}
		out, err := inst.outputs()
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: check: %w", w.name, r, err)
		}
		// Live heap: what the built and exercised system keeps
		// reachable, read with the instance still referenced.
		runtime.GC()
		var m2 runtime.MemStats
		runtime.ReadMemStats(&m2)
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("%s rep %d: close: %w", w.name, r, err)
		}
		if r >= w.variants {
			if err := sameOutputs(res.perVariant[v], out); err != nil {
				return nil, fmt.Errorf("%s rep %d: not deterministic against rep %d of the same variant: %w", w.name, r, v, err)
			}
		} else {
			res.perVariant[v] = out
		}
		// The two pace samples of the timed section are part of the
		// MemStats window and allocate nothing.
		res.samples = append(res.samples, repSample{
			setup:   setup,
			run:     run,
			mallocs: m1.Mallocs - m0.Mallocs,
			bytes:   m1.TotalAlloc - m0.TotalAlloc,
			heapMB:  float64(m2.HeapAlloc) / (1 << 20),
		})
		res.attempted += w.ops
		res.failed += failed
	}
	res.measuredS = time.Since(start).Seconds()
	return res, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) column(f func(repSample) float64) []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = f(s)
	}
	return out
}

// atPace is the median over reps of a section's time divided by the
// inflation sampled beside it: what the time would have been on this
// machine undisturbed. The raw median follows the host's other tenants
// — it moved by half between one hour and the next on the reference
// box — while this repeats within a few per cent (README.md, "The pace
// clock"). It is computed once the run is over, with the run's final
// floor.
func (r *runResult) atPace(f func(repSample) (ns int64, t timing)) float64 {
	return median(r.column(func(s repSample) float64 {
		ns, t := f(s)
		return float64(ns) / 1e9 / t.inflation()
	}))
}

// efficiency is the mean of the variants' λ.
func (r *runResult) efficiency() float64 {
	var s float64
	for _, o := range r.perVariant {
		s += o.efficiency
	}
	return s / float64(len(r.perVariant))
}

// endToEnd computes the seven end-to-end metrics, in BENCHMARK.json
// order.
func (r *runResult) endToEnd() []namedMetric {
	ops := float64(r.w.ops)
	var mallocs, bytes uint64
	for _, s := range r.samples {
		mallocs += s.mallocs
		bytes += s.bytes
	}
	total := ops * float64(len(r.samples))
	return []namedMetric{
		{"setup_s", metric{r.atPace(func(s repSample) (int64, timing) { return s.setup.wallNs, s.setup }), "s"}},
		{"ops_per_s", metric{ops / r.atPace(func(s repSample) (int64, timing) { return s.run.wallNs, s.run }), "1/s"}},
		{"cpu_us_per_op", metric{r.atPace(func(s repSample) (int64, timing) { return s.run.cpuNs, s.run }) * 1e6 / ops, "us"}},
		{"allocs_per_op", metric{float64(mallocs) / total, "count"}},
		{"alloc_bytes_per_op", metric{float64(bytes) / total, "B"}},
		{"live_heap_mb", metric{median(r.column(func(s repSample) float64 { return s.heapMB })), "MB"}},
		{"efficiency_gbps_per_kj", metric{r.efficiency(), "Gbps/kJ"}},
	}
}

type namedMetric struct {
	name string
	m    metric
}
