package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// e2eSpec is one end-to-end metric's contract: unit, direction and the
// share of the parent's median by which it may worsen. BENCHMARK.json
// carries the same table (a test keeps the two in step). The three
// times carry the widest bound the contract allows: between runs on
// the reference box they repeat within 1-5% (interquartile) at the
// undisturbed pace in a calm half hour and 8-12% in a busy one, and a
// bound has to be three times the spread to be trusted. The counts
// repeat to 1e-4. efficiency_gbps_per_kj is exact for a given seed,
// but the seed decides the policies train_rr and sweep_cluster train,
// and their mean quality varies 8% between seeds (README.md, "Why these
// bounds").
type e2eSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

var e2eSpecs = []e2eSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"efficiency_gbps_per_kj", "Gbps/kJ", "higher", 0.25},
}

// pyQuartiles is Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the acceptance rule computes
// spreads with.
func pyQuartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative: better).
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runSelf runs this binary once, as the driver would, and parses the
// last line of its output.
func (b *bench) runSelf(name string, seed int64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(b.opt.seconds, 'g', -1, 64),
		"-trace", "0",
	}
	if b.opt.statedir != "" {
		args = append(args, "-statedir", b.opt.statedir)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line is not a result: %w", name, seed, err)
	}
	return r, nil
}

// The acceptance rule compares two sets of ten runs, each run with
// another seed; the two sets use the same ten seeds.
const (
	selfcheckSets = 2
	selfcheckRuns = 10
	// repeatTolerance is how far a count, an allocation figure or the
	// efficiency may differ between two runs with the same seed.
	repeatTolerance = 0.001
)

// repeats reports whether the metric is a function of the seed alone,
// so that two runs with one seed must agree on it.
func (s e2eSpec) repeats() bool {
	return s.name == "allocs_per_op" || s.name == "alloc_bytes_per_op" || s.name == "efficiency_gbps_per_kj"
}

// selfcheck applies the acceptance rule to this machine: every
// workload is run ten times per set, each time with another seed and in
// a fresh process, for two back-to-back sets. For each metric it prints
// each set's median and interquartile spread, the largest deviation of
// a run from its set's median, how much worse the second set's median
// is than the first's and, for the metrics that the seed alone decides,
// the largest difference between the two runs of one seed. It fails if
// a spread or a deviation (setup_s excepted: single runs of a 10 ms
// set-up are what its bound is widest for), a worsening or a
// same-seed difference exceeds its limit.
func (b *bench) selfcheck() error {
	names := workloadNames
	if b.opt.workload != "" {
		names = []string{b.opt.workload}
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	for set := 0; set < selfcheckSets; set++ {
		for _, name := range names {
			if values[name] == nil {
				values[name] = map[string][][]float64{}
			}
			for i := 0; i < selfcheckRuns; i++ {
				seed := b.opt.seed + int64(i)
				r, err := b.runSelf(name, seed)
				if err != nil {
					return err
				}
				if !r.Correct || r.Failed != 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d", name, seed, r.Correct, r.Failed)
				}
				for _, spec := range e2eSpecs {
					m, ok := r.Metrics[spec.name]
					if !ok {
						return fmt.Errorf("%s seed %d: metric %s missing", name, seed, spec.name)
					}
					sets := values[name][spec.name]
					if sets == nil {
						sets = make([][]float64, selfcheckSets)
					}
					sets[set] = append(sets[set], m.Value)
					values[name][spec.name] = sets
				}
				line, _ := json.Marshal(r.Metrics) // a map of plain numbers and strings cannot fail to marshal
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s seed %d: %s\n", set+1, name, seed, line)
			}
		}
	}
	fmt.Printf("| workload | metric | bound | set medians | spread (IQR/median) per set | max run deviation from median | worsening vs set 1 | same seed, set 1 vs 2 | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	var failures []string
	for _, name := range names {
		for _, spec := range e2eSpecs {
			sets := values[name][spec.name]
			var meds, spreads []string
			var verdicts []string
			var medians [selfcheckSets]float64
			var maxDev float64
			for i, vs := range sets {
				q1, q2, q3 := pyQuartiles(vs)
				medians[i] = q2
				spread := (q3 - q1) / math.Abs(q2)
				for _, v := range vs {
					maxDev = math.Max(maxDev, math.Abs(v-q2)/math.Abs(q2))
				}
				meds = append(meds, fmt.Sprintf("%.6g", q2))
				spreads = append(spreads, fmt.Sprintf("%.4f", spread))
				if spec.name != "setup_s" && spread > spec.bound {
					verdicts = append(verdicts, "SPREAD")
				}
			}
			if spec.name != "setup_s" && maxDev > spec.bound {
				verdicts = append(verdicts, "DEVIATION")
			}
			worse := worsening(medians[0], medians[1], spec.better)
			if worse > spec.bound {
				verdicts = append(verdicts, "WORSE")
			}
			same := "-"
			if spec.repeats() {
				var maxDiff float64
				for i := range sets[0] {
					maxDiff = math.Max(maxDiff, math.Abs(sets[1][i]-sets[0][i])/math.Abs(sets[0][i]))
				}
				same = fmt.Sprintf("%.2g", maxDiff)
				if maxDiff > repeatTolerance {
					verdicts = append(verdicts, "REPEAT")
				}
			}
			verdict := "ok"
			if len(verdicts) > 0 {
				verdict = strings.Join(verdicts, " ")
				failures = append(failures, name+"/"+spec.name+": "+verdict)
			}
			fmt.Printf("| %s | %s | %.3f | %s | %s | %.4f | %+.4f | %s | %s |\n", name, spec.name, spec.bound,
				strings.Join(meds, " / "), strings.Join(spreads, " / "), maxDev, worse, same, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck: %s", strings.Join(failures, "; "))
	}
	return nil
}
