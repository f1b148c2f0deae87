package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"greennfv/internal/nn"
	"greennfv/internal/placement"
)

// stubPolicy places chain i on node(i), or fails; solves counts its
// Solve calls (the plan runs them on one goroutine).
type stubPolicy struct {
	node   func(chain int) int
	err    error
	solves *int
}

func (stubPolicy) Name() string { return "stub" }

func (s stubPolicy) Solve(p placement.Problem) (placement.Solution, error) {
	if s.solves != nil {
		*s.solves++
	}
	if s.err != nil {
		return placement.Solution{}, s.err
	}
	a := placement.Assignment{}
	for i, c := range p.Chains {
		a[c.Name] = s.node(i)
	}
	return placement.Solution{Assignment: a}, nil
}

func TestConfigValidate(t *testing.T) {
	cfg, err := DefaultConfig(100, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if cfg.Cells() < 24 {
		t.Errorf("default grid has %d cells, want >= 24", cfg.Cells())
	}
	bad := cfg
	bad.Seeds = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty seed axis accepted")
	}
	bad = cfg
	bad.TrainSteps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero train budget accepted")
	}
}

// TestSweepFailingCellDoesNotStopGrid pins Run's contract under the
// stop-on-error worker pool: a failing cell records its error in its
// own row, every other cell still trains and produces a real row,
// and the lowest failing cell's error is returned after the grid
// completes. (Regression test: returning cell errors to pool.ForEach
// would halt the grid and emit zero-valued rows.) A placement policy
// that fails when the plan resolves it fails its own rows and no
// other.
func TestSweepFailingCellDoesNotStopGrid(t *testing.T) {
	tiers, err := DefaultTiers()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seeds: []int64{17},
		Tiers: tiers[:1],
		// The first mix has no flows, so its cell fails environment
		// construction; the second is healthy and must still run.
		Mixes:        []Mix{{Name: "broken"}, DefaultMixes()[0]},
		TrainSteps:   60,
		Actors:       1,
		ControlSteps: 4,
	}
	results, err := Run(cfg)
	if err == nil {
		t.Fatal("failing cell's error not returned")
	}
	if !strings.Contains(err.Error(), "cell 0") || !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not identify the failing cell", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Error == "" {
		t.Error("failing cell's row carries no error")
	}
	if results[1].Error != "" {
		t.Errorf("healthy cell's row has error %q", results[1].Error)
	}
	if results[1].Traffic != "standard" || results[1].ThroughputGbps <= 0 {
		t.Errorf("healthy cell did not run after the failure: %+v", results[1])
	}

	// A policy that fails when the plan resolves it — before the pool
	// starts — fails its own rows and nothing else, on every seed, with
	// identity and budgets filled, after one Solve.
	solves := 0
	boom := errors.New("boom")
	cfg.Seeds = []int64{17, 43}
	cfg.Mixes = DefaultMixes()[:1]
	cfg.Topos = []Topo{{Name: "hetero-2", Nodes: 2}}
	cfg.Placements = []Placement{
		{Name: "ffd+swap", Policy: placement.FFDSwap{}},
		{Name: "failing", Policy: stubPolicy{err: boom, solves: &solves}},
		{Name: "relax+round", Policy: placement.Relaxation{}},
	}
	results, err = Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "cell 1 ") || !strings.Contains(err.Error(), "placement (stub): boom") {
		t.Errorf("plan-time failure reported as %v, want cell 1 and the policy's error", err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	for i, r := range results {
		if r.Placement != cfg.Placements[i%3].Name || r.Nodes != 2 || r.Seed != cfg.Seeds[i/3] || r.TrainSteps != 60 {
			t.Errorf("row %d identity or budgets not filled: %+v", i, r)
		}
		if failing := i%3 == 1; failing != (r.Error != "") {
			t.Errorf("row %d (%s): error %q", i, r.Placement, r.Error)
		} else if !failing && r.ThroughputGbps <= 0 {
			t.Errorf("row %d (%s) did not run beside the failing policy: %+v", i, r.Placement, r)
		}
	}
	if solves != 1 {
		t.Errorf("failing policy solved %d times in one Run, want 1", solves)
	}
}

// measured strips the two things a shared row does not copy from the
// cell that trained it: the training time and the names on its axes.
func measured(r Result) Result {
	r.TrainSeconds, r.Topology, r.Placement = 0, "", ""
	return r
}

// TestSweepSharesResolvedCells: pinned multi-node cells built from the
// same inputs are trained once, and nothing but train_seconds shows it.
func TestSweepSharesResolvedCells(t *testing.T) {
	tiers, err := DefaultTiers()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seeds:        []int64{17},
		Tiers:        tiers[4:], // ee
		Mixes:        DefaultMixes()[:1],
		Topos:        []Topo{{Name: "hetero-4", Nodes: 4}},
		Placements:   DefaultPlacements(),
		TrainSteps:   60,
		Actors:       2,
		ControlSteps: 4,
		Workers:      1,
	}
	run := func(c Config) []Result {
		t.Helper()
		rows, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.Cells() {
			t.Fatalf("got %d rows, want %d", len(rows), c.Cells())
		}
		return rows
	}

	// (a) Both analytic policies put all six chains on node 0 of
	// hetero-4: one training, two rows, each under its own name.
	rows := run(cfg)
	for i, want := range []string{"drl-head", "ffd+swap", "relax+round"} {
		if rows[i].Placement != want || rows[i].Topology != "hetero-4" || rows[i].ThroughputGbps <= 0 {
			t.Fatalf("row %d = %+v, want a measured %s row", i, rows[i], want)
		}
	}
	if measured(rows[1]) != measured(rows[2]) {
		t.Errorf("ffd+swap and relax+round rows differ:\n%+v\n%+v", rows[1], rows[2])
	}
	if rows[0].TrainSeconds <= 0 || rows[1].TrainSeconds <= 0 || rows[2].TrainSeconds != 0 {
		t.Errorf("train_seconds = %v, %v, %v; want >0, >0, 0",
			rows[0].TrainSeconds, rows[1].TrainSeconds, rows[2].TrainSeconds)
	}

	// (b) The grid equals three one-placement runs — every cell trained
	// on its own, as before there was a plan — except in train_seconds.
	for i, pl := range cfg.Placements {
		one := cfg
		one.Placements = []Placement{pl}
		alone := run(one)[0]
		if alone.TrainSeconds <= 0 {
			t.Errorf("%s alone: train_seconds = %v", pl.Name, alone.TrainSeconds)
		}
		if measured(alone) != measured(rows[i]) || alone.Placement != rows[i].Placement || alone.Topology != rows[i].Topology {
			t.Errorf("%s: grid row differs from the cell trained alone:\n%+v\n%+v", pl.Name, rows[i], alone)
		}
	}

	// (c) What is shared is the resolved assignment, not a name: a
	// policy that splits the chains over two nodes trains on its own and
	// measures differently; one that packs node 0 like the analytic pair
	// shares their training under a third name. Each is solved once for
	// both seeds and tiers.
	var splitSolves, packSolves int
	wide := cfg
	wide.Seeds = []int64{17, 43}
	wide.Tiers = tiers[3:]
	wide.Placements = []Placement{
		{Name: "ffd+swap", Policy: placement.FFDSwap{}},
		{Name: "split", Policy: stubPolicy{node: func(c int) int { return c % 2 }, solves: &splitSolves}},
		{Name: "pack-0", Policy: stubPolicy{node: func(int) int { return 0 }, solves: &packSolves}},
	}
	got := run(wide)
	for i := 0; i < len(got); i += 3 {
		ffd, split, pack := got[i], got[i+1], got[i+2]
		if ffd.Placement != "ffd+swap" || split.Placement != "split" || pack.Placement != "pack-0" {
			t.Fatalf("rows %d..%d out of order: %s, %s, %s", i, i+2, ffd.Placement, split.Placement, pack.Placement)
		}
		if split.TrainSeconds <= 0 || split.NodesUsed != 2 || measured(split) == measured(ffd) {
			t.Errorf("row %d: split cell not trained on its own: %+v", i+1, split)
		}
		if pack.TrainSeconds != 0 || measured(pack) != measured(ffd) {
			t.Errorf("row %d: pack-0 does not share ffd+swap's cell:\n%+v\n%+v", i+2, pack, ffd)
		}
	}
	if splitSolves != 1 || packSolves != 1 {
		t.Errorf("Solve ran %d and %d times in one Run, want once per (mix, topology, policy)", splitSolves, packSolves)
	}

	// (d) Neither the worker count nor the order of the placement axis
	// changes a row; the first cell with a key is the one that trains.
	par := cfg
	par.Workers = 3
	for i, r := range run(par) {
		if measured(r) != measured(rows[i]) || r.Placement != rows[i].Placement || (r.TrainSeconds == 0) != (rows[i].TrainSeconds == 0) {
			t.Errorf("Workers 3 row %d differs:\n%+v\n%+v", i, r, rows[i])
		}
	}
	perm := cfg
	perm.Placements = []Placement{cfg.Placements[2], cfg.Placements[0], cfg.Placements[1]}
	for i, r := range run(perm) {
		want := rows[(i+2)%3]
		if measured(r) != measured(want) || r.Placement != want.Placement {
			t.Errorf("permuted row %d differs:\n%+v\n%+v", i, r, want)
		}
		if trained := r.Placement != "ffd+swap"; trained != (r.TrainSeconds > 0) {
			t.Errorf("permuted row %d (%s): train_seconds = %v", i, r.Placement, r.TrainSeconds)
		}
	}

	// (e) Cells without a resolved assignment never share: two DRL
	// heads, two single nodes, round-robin or concurrent.
	own := cfg
	own.Topos = []Topo{{Name: "single-a", Nodes: 1}, {Name: "single-b", Nodes: 1}, {Name: "hetero-2", Nodes: 2}}
	own.Placements = []Placement{{Name: "drl-a"}, {Name: "drl-b"}}
	for _, parallel := range []bool{false, true} {
		own.ParallelTrain = parallel
		for i, r := range run(own) {
			if r.TrainSeconds <= 0 {
				t.Errorf("parallel=%v row %d (%s/%s) was not trained: %+v", parallel, i, r.Topology, r.Placement, r)
			}
		}
	}
}

// TestSweepSmallGrid trains a tiny grid end to end and checks one
// well-formed JSON row lands per cell, in deterministic seed-major
// order.
func TestSweepSmallGrid(t *testing.T) {
	tiers, err := DefaultTiers()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seeds:        []int64{17},
		Tiers:        tiers[:2],
		Mixes:        DefaultMixes()[:2],
		TrainSteps:   120,
		Actors:       1,
		ControlSteps: 4,
	}
	results, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != cfg.Cells() {
		t.Fatalf("got %d results, want %d", len(results), cfg.Cells())
	}
	wantOrder := []string{
		tiers[0].Name + "/standard",
		tiers[0].Name + "/light",
		tiers[1].Name + "/standard",
		tiers[1].Name + "/light",
	}
	for i, r := range results {
		if r.Error != "" {
			t.Errorf("cell %d failed: %s", i, r.Error)
		}
		if got := r.SLA + "/" + r.Traffic; got != wantOrder[i] {
			t.Errorf("cell %d = %s, want %s", i, got, wantOrder[i])
		}
		if r.ThroughputGbps <= 0 || r.EnergyJ <= 0 {
			t.Errorf("cell %d: tput=%v energy=%v", i, r.ThroughputGbps, r.EnergyJ)
		}
		if r.Seed != 17 || r.TrainSteps != 120 {
			t.Errorf("cell %d: budgets not recorded: %+v", i, r)
		}
		// No row of this grid is shared (single-node cells never are),
		// so every one of them was trained.
		if r.TrainSeconds <= 0 {
			t.Errorf("cell %d: train_seconds = %v", i, r.TrainSeconds)
		}
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(results) {
		t.Fatalf("JSONL emitted %d rows, want %d", len(lines), len(results))
	}
	for _, line := range lines {
		var row Result
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		if row.Kernels != nn.KernelSet() {
			t.Errorf("row %q names kernel set %q, this process runs %q", line, row.Kernels, nn.KernelSet())
		}
	}
}

// TestSweepClusterGrid runs a tiny grid with the topology and
// placement axes and pins the row contract: single-node cells keep
// the original path but carry the topology name, multi-node cells
// cross with placements and fill the cluster-only fields, and the
// topology-less grid emits rows without any of the new keys.
func TestSweepClusterGrid(t *testing.T) {
	tiers, err := DefaultTiers()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seeds:        []int64{17},
		Tiers:        tiers[4:], // ee
		Mixes:        DefaultMixes()[:1],
		Topos:        []Topo{{Name: "single", Nodes: 1}, {Name: "hetero-2", Nodes: 2}},
		Placements:   DefaultPlacements()[:2], // drl-head, ffd+swap
		TrainSteps:   60,
		Actors:       1,
		ControlSteps: 4,
	}
	if got := cfg.Cells(); got != 3 {
		t.Fatalf("Cells() = %d, want 3 (1 single + 2 placements)", got)
	}
	results, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d rows, want 3", len(results))
	}
	single := results[0]
	if single.Topology != "single" || single.Nodes != 1 || single.Placement != "" {
		t.Errorf("single-node row identity wrong: %+v", single)
	}
	if single.NodesUsed != 0 || single.LinkEnergyJ != 0 {
		t.Errorf("single-node row has cluster extras: %+v", single)
	}
	wantPl := []string{"drl-head", "ffd+swap"}
	for i, r := range results[1:] {
		if r.Topology != "hetero-2" || r.Nodes != 2 || r.Placement != wantPl[i] {
			t.Errorf("cluster row %d identity wrong: %+v", i, r)
		}
		if r.ThroughputGbps <= 0 || r.EnergyJ <= 0 || r.NodesUsed < 1 || r.NodesUsed > 2 {
			t.Errorf("cluster row %d not measured: %+v", i, r)
		}
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[1], `"topology":"hetero-2"`) ||
		!strings.Contains(lines[1], `"placement":"drl-head"`) {
		t.Errorf("cluster row missing axis keys: %s", lines[1])
	}

	// Back-compat: a topology-less grid must emit rows without any of
	// the new keys.
	plain := cfg
	plain.Topos, plain.Placements = nil, nil
	plainRows, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteJSONL(&buf, plainRows); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"topology"`, `"nodes"`, `"placement"`, `"nodes_used"`, `"link_energy_j"`} {
		if strings.Contains(buf.String(), key) {
			t.Errorf("topology-less row leaks key %s: %s", key, buf.String())
		}
	}
}

func TestScaleFlows(t *testing.T) {
	mixes := DefaultMixes()
	var std, light float64
	for _, f := range mixes[0].Flows {
		std += f.PPS
	}
	for _, f := range mixes[1].Flows {
		light += f.PPS
	}
	if light >= std {
		t.Errorf("light mix offers %v pps, standard %v — want lighter", light, std)
	}
}
