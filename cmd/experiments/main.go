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
//	experiments -sweep -sweep-out sweep.jsonl -sweep-parallel
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"greennfv/internal/experiments"
	"greennfv/internal/sweep"
)

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
	only := flag.String("only", "", "run a single experiment: fig1..fig4, fig6..fig11, figcluster, ablations")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the figure runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
	runSweep := flag.Bool("sweep", false, "run the seed × SLA tier × traffic-mix grid instead of the figures, one JSON row per cell")
	sweepOut := flag.String("sweep-out", "", "sweep JSONL output file (default stdout)")
	sweepParallel := flag.Bool("sweep-parallel", false, "train sweep cells with the concurrent Ape-X pipeline (fast, non-deterministic)")
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
		cfg.ParallelTrain = *sweepParallel
		cfg.Workers = *sweepWorkers
		if *sweepCluster {
			cfg.Topos = sweep.DefaultTopos()
			cfg.Placements = sweep.DefaultPlacements()
		}
		results, runErr := sweep.Run(cfg)
		out := os.Stdout
		if *sweepOut != "" {
			f, err := os.Create(*sweepOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := sweep.WriteJSONL(out, results); err != nil {
			return err
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

	type job struct {
		id  string
		run func() (*experiments.Table, error)
	}
	jobs := []job{
		{"fig1", func() (*experiments.Table, error) { return experiments.Fig1() }},
		{"fig2", func() (*experiments.Table, error) { return experiments.Fig2() }},
		{"fig3", func() (*experiments.Table, error) { return experiments.Fig3() }},
		{"fig4", func() (*experiments.Table, error) { return experiments.Fig4() }},
		{"fig6", func() (*experiments.Table, error) { t, _, err := experiments.Fig6(o); return t, err }},
		{"fig7", func() (*experiments.Table, error) { t, _, err := experiments.Fig7(o); return t, err }},
		{"fig8", func() (*experiments.Table, error) { t, _, err := experiments.Fig8(o); return t, err }},
		{"fig9", func() (*experiments.Table, error) { t, _, err := experiments.Fig9(o); return t, err }},
		{"fig10", func() (*experiments.Table, error) { return experiments.Fig10(o) }},
		{"fig11", func() (*experiments.Table, error) { return experiments.Fig11(o) }},
		{"validation-des", func() (*experiments.Table, error) { return experiments.ValidationDES() }},
		{"consolidation", func() (*experiments.Table, error) { return experiments.ExpConsolidation() }},
		{"ablation-per", func() (*experiments.Table, error) { return experiments.AblationPER(o) }},
		{"ablation-actors", func() (*experiments.Table, error) { return experiments.AblationActors(o) }},
		{"ablation-knobs", func() (*experiments.Table, error) { return experiments.AblationKnobs(o) }},
		{"ablation-reward", func() (*experiments.Table, error) { return experiments.AblationReward(o) }},
		{"figcluster", func() (*experiments.Table, error) { t, _, err := experiments.FigCluster(o); return t, err }},
	}

	ran := 0
	for _, j := range jobs {
		if *only != "" && j.id != *only && !(*only == "ablations" && len(j.id) > 3 && j.id[:3] == "abl") {
			continue
		}
		t, err := j.run()
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
			f, err := os.Create(filepath.Join(*csvDir, t.ID+".csv"))
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches -only %q", *only)
	}
	fmt.Printf("ran %d experiments\n", ran)
	return nil
}
