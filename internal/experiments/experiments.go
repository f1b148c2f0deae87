package experiments

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"greennfv/internal/control"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/pool"
	"greennfv/internal/rl/apex"
	"greennfv/internal/sla"
)

// Table is one experiment's tabular output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes an aligned ASCII table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV emits the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Options scales the experiment suite: Quick shrinks the RL training
// budgets so the full suite runs in seconds (unit tests, smoke runs);
// Full uses the bench-scale budgets.
type Options struct {
	// TrainSteps is the RL training budget per SLA model.
	TrainSteps int
	// QTrainSteps is the tabular Q-learning budget.
	QTrainSteps int
	// Actors is the Ape-X worker count.
	Actors int
	// ControlSteps is the measurement horizon for trained policies.
	ControlSteps int
	// Seed fixes all randomness.
	Seed int64
}

// Quick returns budgets for fast smoke runs.
func Quick() Options {
	return Options{TrainSteps: 400, QTrainSteps: 1500, Actors: 2, ControlSteps: 12, Seed: 17}
}

// Full returns the full budgets, the ones cmd/experiments -full runs.
func Full() Options {
	return Options{TrainSteps: 4000, QTrainSteps: 12000, Actors: 4, ControlSteps: 40, Seed: 17}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.TrainSteps <= 0 || o.QTrainSteps <= 0 || o.Actors <= 0 || o.ControlSteps <= 0 {
		return errors.New("experiments: all budgets must be positive")
	}
	return nil
}

// envFactory returns the standard single-node environment factory the
// trained figures share: standard chain, five-flow workload, mild load
// jitter, the SLA s, and the listed knobs (indices into an NF's
// env.KnobsPerNF block) frozen at platform defaults.
func envFactory(s sla.SLA, frozen ...int) control.EnvFactory {
	var mask [env.KnobsPerNF]bool
	for _, k := range frozen {
		mask[k] = true
	}
	return func(seed int64, opts perfmodel.EvalOptions) (*env.Env, error) {
		return env.New(env.Config{
			Model:       perfmodel.Default(),
			Chain:       perfmodel.StandardChain(),
			Bounds:      perfmodel.DefaultBounds(),
			SLA:         s,
			Flows:       env.StandardWorkload(),
			LoadJitter:  0.03,
			FrozenKnobs: mask,
			Options:     opts,
			Seed:        seed,
		})
	}
}

// arm is one controller run of a trained figure: the controller, the
// environment factory it trains and is deployed on, and the seed and
// number of control intervals of its deployment. An arm with no
// intervals only trains; its figure reads the controller's trainer.
type arm struct {
	c     control.Controller
	env   control.EnvFactory
	seed  int64
	steps int
}

// runArms prepares and deploys every arm over one bounded pool and
// returns each arm's per-interval measurements (control.Deploy) at its
// index, nil for an arm that only trains. Arms share nothing mutable —
// each has its own controller, environments and seeds — so the numbers
// equal a serial loop's at any worker count.
func runArms(arms []arm) ([][]perfmodel.Result, error) {
	series := make([][]perfmodel.Result, len(arms))
	err := pool.ForEach(len(arms), 0, func(i int) error {
		a := arms[i]
		if err := a.c.Prepare(a.env); err != nil {
			return fmt.Errorf("prepare %s: %w", a.c.Name(), err)
		}
		if a.steps == 0 {
			return nil
		}
		var err error
		if series[i], err = control.Deploy(a.c, a.env, a.seed, a.steps); err != nil {
			return fmt.Errorf("run %s: %w", a.c.Name(), err)
		}
		return nil
	})
	return series, err
}

// snapshots returns the training snapshots of an arm whose controller
// is a prepared GreenNFV.
func snapshots(a arm) []apex.Snapshot {
	return a.c.(*control.GreenNFV).Trainer().Snapshots
}

// Cell formatters: the strconv call fmt makes for %.0f, %.1f and
// %.2f.
func f0(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func itoa(v int) string   { return strconv.Itoa(v) }
