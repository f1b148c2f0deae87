package env

import (
	"errors"
	"fmt"
	"math"

	"greennfv/internal/cluster"
	"greennfv/internal/perfmodel"
	"greennfv/internal/sla"
	"greennfv/internal/traffic"
)

// KnobsPerNF is the action dimensionality per network function
// (equation 7 of the paper).
const KnobsPerNF = 5

// StatePerNF is the observation dimensionality per network function
// (equation 8 of the paper).
const StatePerNF = 4

// FlowLoad is one offered flow.
type FlowLoad struct {
	PPS        float64
	FrameBytes int
	Burstiness float64
}

// StandardWorkload returns the paper's evaluation load: five flows of
// mixed frame sizes, slightly oversubscribing the 10 GbE link.
func StandardWorkload() []FlowLoad {
	return []FlowLoad{
		{PPS: 300e3, FrameBytes: 1518, Burstiness: 1},
		{PPS: 400e3, FrameBytes: 1024, Burstiness: 1},
		{PPS: 800e3, FrameBytes: 512, Burstiness: 2},
		{PPS: 400e3, FrameBytes: 256, Burstiness: 2},
		{PPS: 300e3, FrameBytes: 64, Burstiness: 4},
	}
}

// Aggregate folds a flow set into the model's traffic descriptor:
// total packet rate, packet-weighted mean frame size, and weighted
// burstiness. This is where hostile flow sets (an ActorSpec off the
// wire) are rejected: every flow needs a finite positive rate, an
// Ethernet frame size the model accepts, and finite burstiness, and
// the totals must not overflow — the environment treats a model error
// after construction as a programming bug and panics.
func Aggregate(flows []FlowLoad) (perfmodel.Traffic, error) {
	if len(flows) == 0 {
		return perfmodel.Traffic{}, errors.New("env: need at least one flow")
	}
	var pps, fsum, bsum float64
	for i, f := range flows {
		if !(f.PPS > 0) || f.FrameBytes < traffic.MinFrame || f.FrameBytes > traffic.MaxFrame {
			return perfmodel.Traffic{}, fmt.Errorf("env: flow %d invalid (%+v)", i, f)
		}
		pps += f.PPS
		fsum += f.PPS * float64(f.FrameBytes)
		b := f.Burstiness
		if b <= 0 {
			b = 1
		}
		bsum += f.PPS * b
	}
	// NaN burstiness and rates that sum past MaxFloat64 surface here.
	if math.IsInf(pps, 0) || math.IsInf(fsum, 0) || math.IsNaN(bsum) || math.IsInf(bsum, 0) {
		return perfmodel.Traffic{}, fmt.Errorf("env: flow set does not aggregate to finite traffic (%+v)", flows)
	}
	return perfmodel.Traffic{
		OfferedPPS: pps,
		FrameBytes: int(fsum / pps),
		Burstiness: bsum / pps,
	}, nil
}

// Config assembles a single-node, single-chain environment.
type Config struct {
	Model  perfmodel.Config
	Chain  perfmodel.ChainSpec
	Bounds perfmodel.KnobBounds
	SLA    sla.SLA
	Flows  []FlowLoad
	// LoadJitter is the per-step relative noise on offered load
	// (traffic is never perfectly stationary; this is what defeats
	// static heuristics).
	LoadJitter float64
	// FrozenKnobs pins individual knobs at their platform defaults
	// regardless of actions, in the per-NF order {CPUShare, FreqGHz,
	// LLCFraction, DMABytes, Batch}. Used by the knob-contribution
	// ablation.
	FrozenKnobs [KnobsPerNF]bool
	// Options selects the platform variant (poll mode, C-state
	// policy). The zero value is the GreenNFV platform.
	Options perfmodel.EvalOptions
	// Seed makes the load process deterministic.
	Seed int64
}

// Env is the paper's environment: one host, one service chain. It is
// the 1-node, 1-chain ClusterEnv — stepping, reset, observation and
// reward are the embedded ClusterEnv's, there is no second
// implementation — plus the single-chain accessors the serving plane,
// the heuristic controllers and the figures use. Not goroutine-safe;
// Ape-X actors each own one instance.
type Env struct {
	*ClusterEnv
}

// New validates the configuration and builds an environment:
// Config.Model becomes the cluster's only node, Config.Chain its only
// chain; no link, no hops, no placement head.
func New(cfg Config) (*Env, error) {
	if cfg.Chain.Name == "" {
		// cluster.Workload wants named chains (placement keys on the
		// name); a lone chain never needed one.
		cfg.Chain.Name = "chain"
	}
	c, err := NewCluster(ClusterConfig{
		Topology:    cluster.Topology{Nodes: []cluster.NodeSpec{{Name: "node", Model: cfg.Model}}},
		Chains:      []ClusterChain{{Chain: cfg.Chain, Flows: cfg.Flows}},
		Bounds:      cfg.Bounds,
		SLA:         cfg.SLA,
		LoadJitter:  cfg.LoadJitter,
		FrozenKnobs: cfg.FrozenKnobs,
		Options:     cfg.Options,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Env{c}, nil
}

// Chain returns the chain spec.
func (e *Env) Chain() perfmodel.ChainSpec { return e.cfg.Chains[0].Chain }

// Last returns the most recent measurement: the chain's full
// single-node evaluation (what StepInto reports as info).
func (e *Env) Last() perfmodel.Result { return e.last.PerChain[0] }

// LastTraffic returns the most recent offered traffic.
func (e *Env) LastTraffic() perfmodel.Traffic { return e.w.Chains[0].Traffic }

// SetKnobs installs explicit knob settings (clamped to bounds),
// advances the load process and re-evaluates, returning the
// measurement. Controllers that bypass the action encoding
// (heuristics, EE-Pstate, the serving agent) drive the environment
// through this. The returned Result's PerNF aliases environment
// scratch and is only valid until the next step.
func (e *Env) SetKnobs(ks []perfmodel.NFKnobs) (perfmodel.Result, error) {
	if len(ks) != e.NumNFs() {
		return perfmodel.Result{}, fmt.Errorf("env: %d knob sets for %d NFs", len(ks), e.NumNFs())
	}
	for i := range ks {
		e.knobFlat[i] = e.cfg.Bounds.Clamp(ks[i])
	}
	e.advanceLoad()
	e.evaluate()
	return e.Last(), nil
}

// DecodeAction maps one NF's action slice ([-1,1]^5) onto knobs.
// Share and frequency scale linearly; DMA and batch scale
// logarithmically (their useful ranges span orders of magnitude).
func (e *Env) DecodeAction(a []float64) perfmodel.NFKnobs {
	return decodeKnobAction(a, e.cfg.Bounds, e.cfg.FrozenKnobs, e.defKnob, e.NumNFs())
}

// decodeKnobAction is the one per-NF action decode, behind both
// StepInto and Env.DecodeAction (the serving controller decodes policy
// output with it). The figures are byte-diffed against this
// arithmetic; do not reorder the operations.
func decodeKnobAction(a []float64, b perfmodel.KnobBounds, frozen [KnobsPerNF]bool, def perfmodel.NFKnobs, numNFs int) perfmodel.NFKnobs {
	u := func(x float64) float64 { // [-1,1] -> [0,1]
		if math.IsNaN(x) {
			x = 0
		}
		x = (x + 1) / 2
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		return x
	}
	logScale := func(x, lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + x*(math.Log(hi)-math.Log(lo)))
	}
	k := perfmodel.NFKnobs{
		CPUShare:    b.ShareMin + u(a[0])*(b.ShareMax-b.ShareMin),
		FreqGHz:     b.FreqMin + u(a[1])*(b.FreqMax-b.FreqMin),
		LLCFraction: b.LLCMin + u(a[2])*(b.LLCMax-b.LLCMin),
		DMABytes:    int64(logScale(u(a[3]), float64(b.DMAMin), float64(b.DMAMax))),
		Batch:       int(math.Round(logScale(u(a[4]), float64(b.BatchMin), float64(b.BatchMax)))),
	}
	if frozen[0] {
		k.CPUShare = def.CPUShare
	}
	if frozen[1] {
		k.FreqGHz = def.FreqGHz
	}
	if frozen[2] {
		k.LLCFraction = 1 / float64(numNFs)
	}
	if frozen[3] {
		k.DMABytes = def.DMABytes
	}
	if frozen[4] {
		k.Batch = def.Batch
	}
	return b.Clamp(k)
}
