package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/serve"
	"greennfv/internal/sweep"
)

// The traced run is short and separate from the untraced one. Whatever
// the workload named on the command line, it drives all three paths'
// replicas and every layer probe, because every traced run must print
// every per-layer metric; the named workload picks which serving
// workload the serve rows describe (serve_rollout, else serve_steady)
// and whose tracing overhead trace.overhead_share is.

const (
	// tracedReps reps of each replica are traced, each followed by one
	// untraced rep of the real entry point, so that the two medians the
	// ledger compares were taken in the same minutes.
	tracedReps = 5
	// The serving replica records six spans per tick, 77 000 a rep.
	serveTracedReps = 3
	keptExps        = 512
)

// pathTrace is one path's traced replica run.
type pathTrace struct {
	name     string // workload whose path this is
	op       string
	spans    []span
	ops      int     // operations the spans cover
	failed   int     // of which failed
	tracedUS float64 // median over traced reps of wall µs per op, at the undisturbed pace
	// buildUS is what the real entry point constructs inside its timed
	// section and the replica before it, in µs per op (the trainer
	// System.Train builds; 0 on the other paths).
	buildUS   float64
	realUS    float64 // median over untraced reps of the real entry point, µs per op
	inflation float64 // median over traced reps of the inflation around the rep: what the spans are divided by
}

// totalUS is the traced time per op of everything the real entry point
// does.
func (p *pathTrace) totalUS() float64 { return p.tracedUS + p.buildUS }

func (p *pathTrace) overhead() float64 { return (p.totalUS() - p.realUS) / p.realUS }

// usAtPace times f with the pace sampled around it and returns its
// duration in µs at the undisturbed pace.
func usAtPace(f func() error) (float64, error) {
	t, err := timed(shortSide, f)
	return t.us(), err
}

// realRep runs one untraced rep of variant 0 of the real workload,
// timed like a rep of an untraced run, and returns its wall µs per op
// at the undisturbed pace.
func realRep(w *workload) (float64, error) {
	if w.stage != nil {
		if err := w.stage(); err != nil {
			return 0, err
		}
	}
	inst, err := w.build(0)
	if err != nil {
		return 0, err
	}
	if err := inst.warm(); err != nil {
		return 0, err
	}
	var failed int
	t, err := timed(repSide, func() (err error) {
		failed, err = inst.run()
		return err
	})
	if err != nil || failed > 0 {
		return 0, fmt.Errorf("%s untraced: %d failed ops, %v", w.name, failed, err)
	}
	if _, err := inst.outputs(); err != nil {
		return 0, err
	}
	return t.us() / float64(w.ops), inst.close()
}

// apexTrace runs the traced training-loop replica on freshly built
// trainers, each rep followed by one of the real workload when there is
// one, and fills the apex.* rows. It returns the transitions the actors
// really produced, for the probes to replay.
func apexTrace(m *ledgerMetrics, prefix string, reps int, build func() (*apex.Trainer, apex.TrainerConfig, error), real *workload) (*pathTrace, []apex.Experience, error) {
	pt := &pathTrace{op: "environment step"}
	var per, inflations, newTrainer, reals []float64
	var kept []apex.Experience
	for r := 0; r < reps; r++ {
		var tr *apex.Trainer
		var cfg apex.TrainerConfig
		us, err := usAtPace(func() (err error) {
			tr, cfg, err = build()
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		newTrainer = append(newTrainer, us)
		rec := newRecorder()
		rec.trace = pt.ops
		tl := &tracedLearner{Learner: tr.Learner(), rec: rec, kept: make([]apex.Experience, 0, keptExps)}
		t, err := timed(repSide, func() error { return runApexReplica(tr, cfg, tl) })
		if err != nil {
			return nil, nil, err
		}
		per = append(per, t.us()/float64(cfg.TotalSteps))
		inflations = append(inflations, t.inflation())
		pt.spans = append(pt.spans, rebase(rec.spans, len(pt.spans))...)
		pt.ops += cfg.TotalSteps
		kept = tl.kept
		if real != nil {
			us, err := realRep(real)
			if err != nil {
				return nil, nil, err
			}
			reals = append(reals, us)
		}
		if r == reps-1 {
			steps := float64(cfg.TotalSteps)
			version, _, _ := tr.Learner().PullParams(0)
			m.set(prefix+"updates_per_step", float64(tr.Learner().Agent().LearnSteps())/steps)
			m.set(prefix+"pushes_per_step", float64(tl.pushes)/steps)
			m.set(prefix+"param_versions_per_kstep", float64(version-1)/steps*1000)
			m.set(prefix+"fresh_pulls_per_kstep", float64(tl.fresh)/steps*1000)
		}
	}
	pt.tracedUS, pt.inflation = median(per), median(inflations)
	if real != nil {
		pt.name, pt.realUS = real.name, median(reals)
		pt.buildUS = median(newTrainer) / float64(pt.ops/reps)
	}
	m.set(prefix+"new_trainer_us", median(newTrainer))
	return pt, kept, nil
}

// rebase renumbers one rep's spans so that IDs stay unique when reps
// are concatenated into one trace file.
func rebase(spans []span, offset int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		out[i] = s
	}
	return out
}

// statePoll counts state-file rewrites by watching the file's inode
// after every tick (an atomic rewrite is a rename of a fresh file), and
// config changes by diffing the controller's last-known-good.
type statePoll struct {
	f       *fleet
	ino     uint64
	writes  int
	changes int
	last    [][]perfmodel.NFKnobs
}

func fileIno(path string) uint64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return st.Ino
	}
	return 0
}

func (p *statePoll) attach(f *fleet) {
	p.f, p.ino = f, fileIno(f.statePath)
	p.last = make([][]perfmodel.NFKnobs, len(f.nodes))
	for i := range f.nodes {
		p.last[i] = f.ctrl.LastGood(nodeID(i))
	}
	f.afterTick = p.tick
}

func (p *statePoll) tick(i int) {
	if ino := fileIno(p.f.statePath); ino != p.ino {
		p.ino = ino
		p.writes++
	}
	lg := p.f.ctrl.LastGood(nodeID(i))
	for j := range lg {
		if j >= len(p.last[i]) || lg[j] != p.last[i][j] {
			p.changes++
			break
		}
	}
	p.last[i] = lg
}

// serveTrace runs the traced tick replica on the given serving
// workload's schedule, each rep followed by one of the real workload,
// then once more untimed with the state file and
// the controller's last-known-good polled after every tick, which
// fills the serve.* count rows: two stats and a copy per tick would be
// a sixth of a steady tick.
func serveTrace(m *ledgerMetrics, fx *fixture, w *workload, rollout bool, reps int) (*pathTrace, error) {
	pt := &pathTrace{name: w.name, op: "tick"}
	period := 0
	if rollout {
		period = fx.sz.rolloutPeriod
	}
	var per, inflations, reals []float64
	for r := 0; r <= reps; r++ {
		counting := r == reps
		var rec *recorder
		if !counting {
			rec = newRecorder()
			rec.trace = pt.ops
		}
		f, err := stagedFleet(fx, w.name+"-traced", period, newReplicaNode(rec))
		if err != nil {
			return nil, err
		}
		f.rounds = w.ops / fx.sz.fleet
		if err := f.warm(); err != nil {
			return nil, err
		}
		var poll statePoll
		if counting {
			poll.attach(f)
		}
		before := f.ctrl.Counters().Snapshot()
		f.rec = rec
		var failed int
		t, err := timed(repSide, func() (err error) {
			failed, err = f.run()
			return err
		})
		f.rec = nil
		if err != nil {
			return nil, err
		}
		if _, err := f.outputs(); err != nil {
			return nil, err
		}
		after := f.ctrl.Counters().Snapshot()
		if err := f.close(); err != nil {
			return nil, err
		}
		if counting {
			ticks := float64(w.ops)
			delta := func(name string) float64 { return float64(after[name] - before[name]) }
			m.set("serve.state_writes_per_tick", float64(poll.writes)/ticks)
			m.set("serve.config_changes_per_tick", float64(poll.changes)/ticks)
			m.set("serve.source_policy_share", delta(serve.CounterSourcePolicy)/ticks)
			m.set("serve.source_last_good_share", delta(serve.CounterSourceLastGood)/ticks)
			m.set("serve.hold_share", delta(serve.CounterSourceHold)/ticks)
			m.set("serve.guardrail_rejections_per_tick", delta(serve.CounterGuardrailRejections)/ticks)
			break
		}
		per = append(per, t.us()/float64(w.ops))
		inflations = append(inflations, t.inflation())
		pt.spans = append(pt.spans, rebase(rec.spans, len(pt.spans))...)
		pt.ops += w.ops
		pt.failed += failed
		us, err := realRep(w)
		if err != nil {
			return nil, err
		}
		reals = append(reals, us)
	}
	pt.tracedUS, pt.realUS, pt.inflation = median(per), median(reals), median(inflations)
	var ticks []float64
	for _, s := range pt.spans {
		if s.Name == "serve.tick" {
			ticks = append(ticks, float64(s.End-s.Start)/1e3/pt.inflation)
		}
	}
	m.set("serve.tick_p50_us", quantile(ticks, 0.50))
	m.set("serve.tick_p99_us", quantile(ticks, 0.99))
	m.set("serve.tick_p999_us", quantile(ticks, 0.999))
	return pt, nil
}

// sweepTrace times each grid cell through sweep.Run, one cell per
// call, each grid followed by one rep of the real workload (one call
// per grid). sweep.Run reports a cell's training wall time itself
// (Result.TrainSeconds); the span recorded for it is laid at the start
// of the cell, and the rest of the cell is the measure phase.
func sweepTrace(m *ledgerMetrics, seed int64, sz sizes, reps int, real *workload) (*pathTrace, error) {
	pt := &pathTrace{name: real.name, op: "grid cell"}
	rec := newRecorder()
	var cellS, trainS, inflations, reals []float64
	for r := 0; r < reps; r++ {
		full := sweepConfig(seed, sz)
		for i := range full.Placements {
			cfg := full
			cfg.Placements = full.Placements[i : i+1]
			rec.nextTrace()
			var id int
			var rows []sweep.Result
			t, err := timed(repSide, func() (err error) {
				id = rec.begin("sweep.cell")
				rows, err = sweep.Run(cfg)
				rec.end(id)
				return err
			})
			pt.ops++
			if err != nil || len(rows) != 1 || rows[0].Error != "" {
				pt.failed++
				continue
			}
			start := rec.spans[id-1].Start
			rec.spans = append(rec.spans, span{
				ID: len(rec.spans) + 1, Parent: id, Trace: rec.trace, Name: "sweep.train",
				Start: start, End: start + int64(rows[0].TrainSeconds*1e9),
			})
			cellS = append(cellS, t.us()/1e6)
			trainS = append(trainS, rows[0].TrainSeconds/t.inflation())
			inflations = append(inflations, t.inflation())
		}
		us, err := realRep(real)
		if err != nil {
			return nil, err
		}
		reals = append(reals, us)
	}
	if len(cellS) == 0 {
		return nil, fmt.Errorf("sweep trace: every cell failed")
	}
	pt.spans = rec.spans
	pt.tracedUS, pt.realUS, pt.inflation = mean(cellS)*1e6, median(reals), median(inflations)
	m.set("sweep.train_s_per_cell", mean(trainS))
	m.set("sweep.measure_s_per_cell", mean(cellS)-mean(trainS))
	m.set("sweep.cells_failed", float64(pt.failed))
	return pt, nil
}

// traced is the -trace 1 run.
func (b *bench) traced(named *workload) ([]namedMetric, int, int, error) {
	m := newLedgerMetrics()
	fx, err := b.fixture()
	if err != nil {
		return nil, 0, 0, err
	}
	m.set("bench.fixture_s", fx.seconds)
	seed := deriveSeed(b.opt.seed, 0)

	// The replicas must be the entry points, or the ledger describes
	// something else.
	if err := checkTrainReplica(seed, b.sz.trainSteps); err != nil {
		return nil, 0, 0, err
	}
	if err := checkServeReplica(fx, 2*b.sz.serveWarm); err != nil {
		return nil, 0, 0, err
	}

	train, kept, err := apexTrace(m, "apex.", tracedReps, func() (*apex.Trainer, apex.TrainerConfig, error) {
		return newRRTrainer(seed, b.sz.trainSteps)
	}, trainRR(b.opt.seed, b.sz))
	if err != nil {
		return nil, 0, 0, err
	}
	wideTrain, wide, err := apexTrace(newLedgerMetrics(), "", 1, func() (*apex.Trainer, apex.TrainerConfig, error) {
		return newClusterTrainer(seed, b.sz.sweepTrain, nil)
	}, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	m.set("sweep.replica_us_per_step", wideTrain.tracedUS)

	serveW := serveSteady(fx)
	if named.name == "serve_rollout" {
		serveW = serveRollout(fx)
	}
	serving, err := serveTrace(m, fx, serveW, named.name == "serve_rollout", serveTracedReps)
	if err != nil {
		return nil, 0, 0, err
	}
	cells, err := sweepTrace(m, seed, b.sz, tracedReps, sweepCluster(b.opt.seed, b.sz))
	if err != nil {
		return nil, 0, 0, err
	}

	if err := probeErr("layers", func() {
		probeNN(m, "", kept)
		probeNN(m, "_wide", wide)
		probeDDPG(m, "", seed, kept)
		probeDDPG(m, "_wide", seed, wide)
		probeReplay(m, kept)
		probeEnv(m, seed, kept, wide)
		probeCluster(m)
		must(probeServe(m, fx))
	}); err != nil {
		return nil, 0, 0, err
	}

	paths := []*pathTrace{train, serving, cells}
	own := serving
	for _, p := range paths {
		if p.name == named.name {
			own = p
		}
	}
	spans := 0
	for _, p := range paths {
		spans += len(p.spans)
		if err := writeSpans(filepath.Join(outDir, "trace-"+p.name+".jsonl"), p.spans); err != nil {
			return nil, 0, 0, err
		}
	}
	m.set("trace.overhead_share", own.overhead())
	m.set("trace.spans", float64(spans))

	for _, l := range []ledger{trainLedger(m, train), serveLedger(m, serving), sweepLedger(m, cells, wideTrain, b.sz)} {
		text := l.render()
		if err := os.WriteFile(filepath.Join(outDir, "ledger-"+l.path+".md"), []byte(text), 0o644); err != nil {
			return nil, 0, 0, err
		}
		fmt.Print(text)
	}

	out := make([]namedMetric, 0, len(perLayerSpecs))
	for _, spec := range perLayerSpecs {
		v, ok := m.vals[spec.name]
		if !ok {
			return nil, 0, 0, fmt.Errorf("per-layer metric %s was not measured", spec.name)
		}
		out = append(out, namedMetric{spec.name, metric{v, spec.unit}})
	}
	if len(m.vals) != len(perLayerSpecs) {
		for _, name := range m.order {
			if !isPerLayer(name) {
				return nil, 0, 0, fmt.Errorf("measured %s, which BENCHMARK.json does not list", name)
			}
		}
	}
	return out, own.ops, own.failed, nil
}
