package experiments

import (
	"encoding/csv"
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
			if i < len(widths) {
				widths[i] = max(widths[i], len(cell))
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV emits the table as CSV (encoding/csv: a cell with a comma,
// quote or line break, or a leading space, is quoted).
func (t *Table) WriteCSV(w io.Writer) error {
	c := csv.NewWriter(w)
	if err := c.Write(t.Columns); err != nil {
		return err
	}
	return c.WriteAll(t.Rows)
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

// Suite runs the trained figures at one set of Options and trains
// each distinct GreenNFV model once: an arm whose key an earlier arm
// of the suite trained deploys that model and skips Prepare. It keeps
// the models as long as it lives, and it runs one figure at a time.
type Suite struct {
	o Options
	// The paper's SLAs: MaxThroughput at 2,000 and 3,300 J, MinEnergy
	// at 7.5 and 7.0 Gbps, and Energy-Efficiency.
	maxT, maxT3300, minE, minE7, ee sla.SLA

	models    map[arm]control.Controller // prepared GreenNFVs by arm.key
	greenNFVs int                        // GreenNFV arms run
}

// NewSuite validates o and builds the paper's SLAs once.
func NewSuite(o Options) (*Suite, error) {
	maxT, err1 := sla.NewMaxThroughput(2000)
	maxT3300, err2 := sla.NewMaxThroughput(3300)
	minE, err3 := sla.NewMinEnergy(7.5)
	minE7, err4 := sla.NewMinEnergy(7.0)
	if err := errors.Join(o.Validate(), err1, err2, err3, err4); err != nil {
		return nil, err
	}
	return &Suite{o: o, maxT: maxT, maxT3300: maxT3300, minE: minE, minE7: minE7,
		ee: sla.NewEnergyEfficiency(), models: map[arm]control.Controller{}}, nil
}

// Trained reports the GreenNFV models the suite trained and the GreenNFV arms it ran.
func (s *Suite) Trained() (models, arms int) { return len(s.models), s.greenNFVs }

// kind is an arm's controller.
type kind int

const (
	greenNFV kind = iota
	baseline
	heuristic
	eePstate
	qLearning
)

// arm is one controller run of a trained figure, as data. An arm with
// no deploy steps only trains; its figure reads the trainer.
type arm struct {
	kind       kind
	sla        sla.SLA              // of the environments it trains and deploys on
	frozen     [env.KnobsPerNF]bool // knobs held at platform defaults
	actors     int                  // Ape-X actors (GreenNFV only)
	seed       int64                // training seed (GreenNFV only)
	deploySeed int64
	steps      int // control intervals deployed
}

// key is what the arm trains: the arm without its deployment.
func (a arm) key() arm {
	a.deploySeed, a.steps = 0, 0
	return a
}

// envFactory is the standard single-node environment every trained
// figure uses: the node spec's defaults (standard chain, five-flow
// workload) under mild load jitter, and the arm's SLA and frozen knobs
// at platform defaults.
func (a arm) envFactory() control.EnvFactory {
	spec := apex.ActorSpec{LoadJitter: 0.03, SLA: a.sla}
	return func(seed int64, opts perfmodel.EvalOptions) (*env.Env, error) {
		cfg := spec.EnvConfig(seed)
		cfg.FrozenKnobs, cfg.Options = a.frozen, opts
		return env.New(cfg)
	}
}

// controller builds the arm's unprepared controller at the suite's budgets.
func (s *Suite) controller(a arm) control.Controller {
	switch a.kind {
	case baseline:
		return control.NewBaseline()
	case heuristic:
		return control.NewHeuristic()
	case eePstate:
		return control.NewEEPstate()
	case qLearning:
		return control.NewQLearning(a.sla, s.o.QTrainSteps)
	default:
		return control.NewGreenNFV(a.sla, s.o.TrainSteps, a.actors, a.seed)
	}
}

// run prepares and deploys arms over one bounded pool and returns each
// arm's controller and control.Deploy series (nil if it only trains) at
// its index. The GreenNFV arms of one key are one job, which prepares
// the model unless the suite has it, then deploys them in order, since
// a deploy mutates its controller; any other arm is a job of its own.
func (s *Suite) run(arms []arm) ([]control.Controller, [][]perfmodel.Result, error) {
	var jobs [][]int
	byKey := map[arm]int{}
	for i, a := range arms {
		if a.kind == greenNFV {
			s.greenNFVs++
			if j, ok := byKey[a.key()]; ok {
				jobs[j] = append(jobs[j], i)
				continue
			}
			byKey[a.key()] = len(jobs)
		}
		jobs = append(jobs, []int{i})
	}
	cs, series := make([]control.Controller, len(arms)), make([][]perfmodel.Result, len(arms))
	err := pool.ForEach(len(jobs), 0, func(j int) error {
		a := arms[jobs[j][0]]
		c := s.models[a.key()] // only read while the pool runs
		if c == nil {
			c = s.controller(a)
			if err := c.Prepare(a.envFactory()); err != nil {
				return fmt.Errorf("prepare %s: %w", c.Name(), err)
			}
		}
		for _, i := range jobs[j] {
			cs[i] = c
			if arms[i].steps == 0 {
				continue
			}
			var err error
			if series[i], err = control.Deploy(c, arms[i].envFactory(), arms[i].deploySeed, arms[i].steps); err != nil {
				return fmt.Errorf("run %s: %w", c.Name(), err)
			}
		}
		return nil
	})
	for i, a := range arms {
		if a.kind == greenNFV && cs[i] != nil {
			s.models[a.key()] = cs[i]
		}
	}
	return cs, series, err
}

// snapshots returns the training snapshots of a prepared GreenNFV.
func snapshots(c control.Controller) []apex.Snapshot {
	return c.(*control.GreenNFV).Curve()
}

// Cell formatters: the strconv call fmt makes for %.0f, %.1f and
// %.2f.
func f0(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func itoa(v int) string   { return strconv.Itoa(v) }
