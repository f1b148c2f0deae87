package qlearn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"greennfv/internal/perfmodel"
)

// Config shapes the tabular learner.
type Config struct {
	// Levels is the discretization count per knob (the paper uses a
	// coarse grid; 3 levels gives 3^5 = 243 joint actions).
	Levels int
	// ThroughputBins and EnergyBins discretize the state.
	ThroughputBins, EnergyBins int
	// MaxThroughputGbps and MaxEnergyJ bound the state bins.
	MaxThroughputGbps, MaxEnergyJ float64
	// Alpha is the learning rate, Gamma the discount.
	Alpha, Gamma float64
	// Epsilon is the initial exploration rate, decayed by
	// EpsilonDecay each step down to EpsilonMin.
	Epsilon, EpsilonDecay, EpsilonMin float64
	// Bounds are the knob ranges the grid spans.
	Bounds perfmodel.KnobBounds
	// Seed fixes exploration randomness.
	Seed int64
}

// DefaultConfig returns the baseline configuration used in the
// comparison experiments.
func DefaultConfig() Config {
	return Config{
		Levels:         3,
		ThroughputBins: 8, EnergyBins: 8,
		MaxThroughputGbps: 10, MaxEnergyJ: 3500,
		Alpha: 0.2, Gamma: 0.9,
		Epsilon: 1.0, EpsilonDecay: 0.999, EpsilonMin: 0.05,
		Bounds: perfmodel.DefaultBounds(),
		Seed:   1,
	}
}

// Validate reports whether the configuration is trainable.
func (c Config) Validate() error {
	switch {
	case c.Levels < 2:
		return errors.New("qlearn: need at least 2 levels per knob")
	case c.ThroughputBins < 1 || c.EnergyBins < 1:
		return errors.New("qlearn: need at least one state bin per axis")
	case c.MaxThroughputGbps <= 0 || c.MaxEnergyJ <= 0:
		return errors.New("qlearn: state bounds must be positive")
	case c.Alpha <= 0 || c.Alpha > 1:
		return errors.New("qlearn: alpha must be in (0,1]")
	case c.Gamma < 0 || c.Gamma > 1:
		return errors.New("qlearn: gamma must be in [0,1]")
	case c.Epsilon < 0 || c.Epsilon > 1:
		return errors.New("qlearn: epsilon must be in [0,1]")
	}
	return nil
}

// numKnobs is the per-NF action arity (equation 7).
const numKnobs = 5

// Agent is the tabular learner.
type Agent struct {
	cfg     Config
	rng     *rand.Rand
	q       [][]float64 // [state][action]
	actions int
	eps     float64
	// precomputed knob grids.
	shareGrid, freqGrid, llcGrid []float64
	dmaGrid                      []int64
	batchGrid                    []int
}

// New builds an agent with a zero-initialized Q table.
func New(cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	actions := 1
	for i := 0; i < numKnobs; i++ {
		actions *= cfg.Levels
	}
	states := cfg.ThroughputBins * cfg.EnergyBins
	a := &Agent{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		q:       make([][]float64, states),
		actions: actions,
		eps:     cfg.Epsilon,
	}
	for i := range a.q {
		a.q[i] = make([]float64, actions)
	}
	b := cfg.Bounds
	lin := func(lo, hi float64) []float64 {
		g := make([]float64, cfg.Levels)
		for i := range g {
			g[i] = lo + (hi-lo)*float64(i)/float64(cfg.Levels-1)
		}
		return g
	}
	logGrid := func(lo, hi float64) []float64 {
		g := make([]float64, cfg.Levels)
		for i := range g {
			g[i] = math.Exp(math.Log(lo) + (math.Log(hi)-math.Log(lo))*float64(i)/float64(cfg.Levels-1))
		}
		return g
	}
	a.shareGrid = lin(b.ShareMin, b.ShareMax)
	a.freqGrid = lin(b.FreqMin, b.FreqMax)
	a.llcGrid = lin(b.LLCMin, b.LLCMax)
	for _, v := range logGrid(float64(b.DMAMin), float64(b.DMAMax)) {
		a.dmaGrid = append(a.dmaGrid, int64(v))
	}
	for _, v := range logGrid(float64(b.BatchMin), float64(b.BatchMax)) {
		a.batchGrid = append(a.batchGrid, int(math.Round(v)))
	}
	return a, nil
}

// StateIndex discretizes a (throughput, energy) measurement.
func (a *Agent) StateIndex(tputGbps, energyJ float64) int {
	tb := binOf(tputGbps, a.cfg.MaxThroughputGbps, a.cfg.ThroughputBins)
	eb := binOf(energyJ, a.cfg.MaxEnergyJ, a.cfg.EnergyBins)
	return tb*a.cfg.EnergyBins + eb
}

func binOf(v, max float64, bins int) int {
	if v < 0 {
		v = 0
	}
	if v >= max {
		return bins - 1
	}
	return int(v / max * float64(bins))
}

// Knobs decodes a joint action index into a knob set.
func (a *Agent) Knobs(action int) (perfmodel.NFKnobs, error) {
	if action < 0 || action >= a.actions {
		return perfmodel.NFKnobs{}, fmt.Errorf("qlearn: action %d out of %d", action, a.actions)
	}
	L := a.cfg.Levels
	digits := make([]int, numKnobs)
	for i := 0; i < numKnobs; i++ {
		digits[i] = action % L
		action /= L
	}
	return perfmodel.NFKnobs{
		CPUShare:    a.shareGrid[digits[0]],
		FreqGHz:     a.freqGrid[digits[1]],
		LLCFraction: a.llcGrid[digits[2]],
		DMABytes:    a.dmaGrid[digits[3]],
		Batch:       a.batchGrid[digits[4]],
	}, nil
}

// Act selects an action epsilon-greedily for a state index.
func (a *Agent) Act(state int) int {
	if a.rng.Float64() < a.eps {
		return a.rng.Intn(a.actions)
	}
	return a.bestAction(state)
}

// bestAction is argmax over Q[state] with random tie-breaking biased
// to the first maximum (deterministic given table state).
func (a *Agent) bestAction(state int) int {
	row := a.q[state]
	best := 0
	for i := 1; i < len(row); i++ {
		if row[i] > row[best] {
			best = i
		}
	}
	return best
}

// Greedy returns the exploit action for a state.
func (a *Agent) Greedy(state int) int { return a.bestAction(state) }

// Update applies the Q-learning rule for (s, a, r, s') and decays
// epsilon.
func (a *Agent) Update(state, action int, reward float64, nextState int) error {
	if state < 0 || state >= len(a.q) || nextState < 0 || nextState >= len(a.q) {
		return fmt.Errorf("qlearn: state out of range")
	}
	if action < 0 || action >= a.actions {
		return fmt.Errorf("qlearn: action out of range")
	}
	maxNext := a.q[nextState][a.bestAction(nextState)]
	td := reward + a.cfg.Gamma*maxNext - a.q[state][action]
	a.q[state][action] += a.cfg.Alpha * td
	a.eps = math.Max(a.cfg.EpsilonMin, a.eps*a.cfg.EpsilonDecay)
	return nil
}
