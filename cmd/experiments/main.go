// Command experiments regenerates every figure of the paper's
// evaluation and the ablation studies, rendering each as an ASCII
// table (and optionally CSV files).
//
// Usage:
//
//	experiments                  # quick budgets, all figures to stdout
//	experiments -full            # experiments.Full() budgets
//	experiments -only fig9       # one experiment
//	experiments -csv out/        # also write CSV per figure
//	experiments -cpuprofile p.pb # profile the figure runs (go tool pprof)
//	experiments -sweep           # seed × SLA tier × traffic grid, JSONL
//	experiments -sweep -sweep-out sweep.jsonl -sweep-cluster
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"greennfv/internal/experiments"
	"greennfv/internal/nn"
	"greennfv/internal/sweep"
)

// jobs is every experiment -only selects, in the order a full run
// prints them.
var jobs = []struct {
	id  string
	run func(*experiments.Suite) (*experiments.Table, error)
}{
	{"fig1", func(*experiments.Suite) (*experiments.Table, error) { return experiments.Fig1() }},
	{"fig2", func(*experiments.Suite) (*experiments.Table, error) { return experiments.Fig2() }},
	{"fig3", func(*experiments.Suite) (*experiments.Table, error) { return experiments.Fig3() }},
	{"fig4", func(*experiments.Suite) (*experiments.Table, error) { return experiments.Fig4() }},
	{"fig6", func(s *experiments.Suite) (*experiments.Table, error) { t, _, err := s.Fig6(); return t, err }},
	{"fig7", func(s *experiments.Suite) (*experiments.Table, error) { t, _, err := s.Fig7(); return t, err }},
	{"fig8", func(s *experiments.Suite) (*experiments.Table, error) { t, _, err := s.Fig8(); return t, err }},
	{"fig9", func(s *experiments.Suite) (*experiments.Table, error) { t, _, err := s.Fig9(); return t, err }},
	{"fig10", (*experiments.Suite).Fig10},
	{"fig11", (*experiments.Suite).Fig11},
	{"validation-des", func(*experiments.Suite) (*experiments.Table, error) { return experiments.ValidationDES() }},
	{"consolidation", func(*experiments.Suite) (*experiments.Table, error) { return experiments.ExpConsolidation() }},
	{"ablation-per", (*experiments.Suite).AblationPER},
	{"ablation-actors", (*experiments.Suite).AblationActors},
	{"ablation-knobs", (*experiments.Suite).AblationKnobs},
	{"ablation-reward", (*experiments.Suite).AblationReward},
	{"figcluster", func(s *experiments.Suite) (*experiments.Table, error) { t, _, err := s.FigCluster(); return t, err }},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run carries the whole figure sweep so the profile defers fire on
// every exit path (log.Fatal in main would skip them).
func run() error {
	full := flag.Bool("full", false, "use the experiments.Full() budgets instead of Quick()")
	var ids []string
	for _, j := range jobs {
		ids = append(ids, j.id)
	}
	only := flag.String("only", "", "run a single experiment: "+strings.Join(ids, ", ")+", or ablations (every ablation-*)")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the figure runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
	runSweep := flag.Bool("sweep", false, "run the seed × SLA tier × traffic-mix grid instead of the figures, one JSON row per cell")
	sweepOut := flag.String("sweep-out", "", "sweep JSONL output file (default stdout)")
	sweepWorkers := flag.Int("sweep-workers", 0, "concurrently running sweep cells (0 = GOMAXPROCS)")
	sweepCluster := flag.Bool("sweep-cluster", false, "add the topology x placement axes to the sweep grid (single node plus heterogeneous 4- and 8-node clusters)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	o := experiments.Quick()
	if *full {
		o = experiments.Full()
	}

	if *runSweep {
		cfg, err := sweep.DefaultConfig(o.TrainSteps, o.Actors, o.ControlSteps)
		if err != nil {
			return err
		}
		cfg.Workers = *sweepWorkers
		if *sweepCluster {
			cfg.Topos = sweep.DefaultTopos()
			cfg.Placements = sweep.DefaultPlacements()
		}
		// Open the output before the grid runs: a bad path costs nothing.
		out := os.Stdout
		if *sweepOut != "" {
			f, err := os.Create(*sweepOut)
			if err != nil {
				return err
			}
			defer f.Close() // error paths; the written file's Close is checked below
			out = f
		}
		results, runErr := sweep.Run(cfg)
		if err := sweep.WriteJSONL(out, results); err != nil {
			return err
		}
		if out != os.Stdout {
			if err := out.Close(); err != nil {
				return err
			}
		}
		// A row without an error and without training time took its
		// measurements from an earlier cell built from the same inputs.
		trained, shared := 0, 0
		for _, r := range results {
			switch {
			case r.TrainSeconds > 0:
				trained++
			case r.Error == "":
				shared++
			}
		}
		fmt.Fprintf(os.Stderr, "sweep: trained %d of %d cells (%d share a resolved placement with an earlier cell)\n",
			trained, len(results), shared)
		if runErr != nil {
			return runErr
		}
		axes := ""
		if len(cfg.Topos) > 0 {
			axes = fmt.Sprintf(" x %d topologies", len(cfg.Topos))
		}
		fmt.Fprintf(os.Stderr, "swept %d cells (%d seeds x %d SLA tiers x %d traffic mixes%s)\n",
			cfg.Cells(), len(cfg.Seeds), len(cfg.Tiers), len(cfg.Mixes), axes)
		return nil
	}

	base := liveHeap()
	suite, err := experiments.NewSuite(o)
	if err != nil {
		return err
	}
	ran := 0
	for _, j := range jobs {
		if *only != "" && j.id != *only && !(*only == "ablations" && strings.HasPrefix(j.id, "ablation-")) {
			continue
		}
		t, err := j.run(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", j.id, err)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			var b bytes.Buffer
			if err := t.WriteCSV(&b); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*csvDir, t.ID+".csv"), b.Bytes(), 0o666); err != nil {
				return err
			}
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches -only %q", *only)
	}
	fmt.Printf("ran %d experiments\n", ran)
	if models, arms := suite.Trained(); arms > 0 {
		retained := float64(int64(liveHeap()-base)) / (1 << 20)
		runtime.KeepAlive(suite)
		fmt.Fprintf(os.Stderr, "experiments: trained %d Ape-X models for %d arms on the %s nn kernels; the suite retains %.1f MB\n",
			models, arms, nn.KernelSet(), retained)
	}
	return nil
}

// liveHeap is the heap in use after two collections: the second frees
// what the first only moved to the sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
