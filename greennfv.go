// Package greennfv is the public API of the GreenNFV reproduction:
// energy-efficient NFV resource scheduling under SLA constraints
// (Nine, Kosar, Bulut, Hwang — SC 2023).
//
// The library models an NFV node (OpenNetVM-style service chains on a
// dual-socket Xeon with DVFS, Intel CAT cache partitioning, DDIO and
// DMA buffers), offers three SLA families (maximum throughput under
// an energy budget, minimum energy under a throughput floor, and
// unconstrained energy efficiency), and trains a DDPG policy with
// the Ape-X distributed prioritized-replay architecture to drive the
// five per-NF resource knobs: CPU share, core frequency, LLC
// allocation, DMA buffer size and packet batch size.
//
// A System is one node, described once: NewSystem turns the Config
// (chain preset name, flows, load jitter, seed) into the node spec
// that WriteNodeSpec writes for the serving daemons and remote actors
// read, and every environment the System trains or measures on is
// built from that spec.
//
// Quickstart:
//
//	sys, _ := greennfv.NewSystem(greennfv.DefaultConfig())
//	policy, _ := sys.Train(greennfv.EfficiencySLA(), greennfv.TrainOptions{Steps: 4000})
//	m, _ := sys.Measure(policy)
//	fmt.Printf("%.1f Gbps at %.0f J\n", m.ThroughputGbps, m.EnergyJ)
package greennfv

import (
	"errors"
	"fmt"
	"io"

	"greennfv/internal/control"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// Flow describes one offered traffic stream.
type Flow struct {
	// PPS is the mean packet rate.
	PPS float64
	// FrameBytes is the Ethernet frame size (64–1518).
	FrameBytes int
	// Burstiness is the index of dispersion (1 = Poisson).
	Burstiness float64
}

// ChainPreset names one of the calibrated service chains — the name
// the node spec carries. The empty name is the standard chain.
type ChainPreset string

// Available chain presets.
const (
	// StandardChain is the paper's 3-NF evaluation chain
	// (firewall → NAT → monitor class).
	StandardChain ChainPreset = "standard"
	// HeavyChain is cache- and payload-hungry (IDS → crypto →
	// router class).
	HeavyChain ChainPreset = "heavy"
	// LightChain is a 2-NF header-only chain.
	LightChain ChainPreset = "light"
)

// SLA is an opaque service-level agreement.
type SLA struct{ spec sla.SLA }

// MaxThroughputSLA maximizes throughput subject to an energy budget
// in joules per 10-second measurement window (paper eq. 1).
func MaxThroughputSLA(energyBudgetJ float64) (SLA, error) {
	s, err := sla.NewMaxThroughput(energyBudgetJ)
	return SLA{spec: s}, err
}

// MinEnergySLA minimizes energy subject to a throughput floor in
// Gbps (paper eq. 2).
func MinEnergySLA(minGbps float64) (SLA, error) {
	s, err := sla.NewMinEnergy(minGbps)
	return SLA{spec: s}, err
}

// EfficiencySLA maximizes throughput per unit energy (paper eq. 3).
func EfficiencySLA() SLA { return SLA{spec: sla.NewEnergyEfficiency()} }

// Describe renders the SLA.
func (s SLA) Describe() string { return s.spec.Describe() }

// Config assembles a system.
type Config struct {
	// Chain names the service chain preset (empty: StandardChain).
	Chain ChainPreset
	// Flows is the offered workload; nil selects the paper's
	// five-flow evaluation mix.
	Flows []Flow
	// LoadJitter is per-interval relative load noise, in [0,1).
	LoadJitter float64
	// Seed fixes randomness.
	Seed int64
}

// DefaultConfig returns the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{Chain: StandardChain, LoadJitter: 0.03, Seed: 17}
}

// Measurement is one control-interval outcome.
type Measurement struct {
	ThroughputGbps float64
	EnergyJ        float64
	// EfficiencyGbpsPerKJ is the paper's λ.
	EfficiencyGbpsPerKJ float64
	CPUPercent          float64
	PowerWatts          float64
	MissRate            float64
	SLASatisfied        bool
}

// System is a configured NFV node simulation. It holds the node as
// the spec remote actors and the serving daemons rebuild it from
// (WriteNodeSpec), with the SLA unset: every environment it trains or
// measures on is built from that spec under the run's agreement.
type System struct {
	spec apex.ActorSpec
}

// NewSystem validates the configuration and builds a system.
func NewSystem(cfg Config) (*System, error) {
	s := &System{spec: apex.ActorSpec{Chain: string(cfg.Chain), LoadJitter: cfg.LoadJitter, EnvSeed: cfg.Seed}}
	if s.spec.Chain == "" { // the written spec names its chain
		s.spec.Chain = string(StandardChain)
	}
	for _, f := range cfg.Flows {
		s.spec.Flows = append(s.spec.Flows, env.FlowLoad{PPS: f.PPS, FrameBytes: f.FrameBytes, Burstiness: f.Burstiness})
	}
	if len(s.spec.Flows) == 0 {
		s.spec.Flows = env.StandardWorkload()
	}
	if err := s.spec.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// node is the system's spec under the agreement.
func (s *System) node(agreement sla.SLA) *apex.ActorSpec {
	spec := s.spec
	spec.SLA = agreement
	return &spec
}

// factory builds the node's environments for controllers.
func (s *System) factory(agreement sla.SLA) control.EnvFactory {
	spec := s.node(agreement)
	return func(seed int64, opts perfmodel.EvalOptions) (*env.Env, error) {
		cfg := spec.EnvConfig(seed)
		cfg.Options = opts
		return env.New(cfg)
	}
}

// TrainOptions sizes a training run. Without RemoteActors, training
// interleaves the actors and the learner round-robin in this process
// and is deterministic given the system's seed.
type TrainOptions struct {
	// Steps is the total training episodes (paper-scale runs use
	// tens of thousands; 4000 reproduces the shapes).
	Steps int
	// Actors is the Ape-X worker count (default 4).
	Actors int
	// SamplesPerInsert, when positive, paces the learner against
	// remote actors (RemoteActors): at most SamplesPerInsert replay
	// samples are consumed per inserted transition, so a learner that
	// outruns experience generation blocks for fresh data instead of
	// replaying a stale buffer. Zero disables pacing; round-robin
	// training ignores it.
	SamplesPerInsert float64
	// RemoteActors > 0 trains with actor OS processes connected to
	// the learner over TCP (internal/rpcutil) — the paper's six-node
	// topology — on the concurrent Ape-X pipeline (prefetched
	// minibatches), which is not deterministic. The processes run
	// ActorCommand (default: an "apexactor" binary found on PATH;
	// build it with `go build ./cmd/apexactor`).
	RemoteActors int
	// ActorCommand is the argv prefix that launches one actor
	// process; the system appends the learner address, rank, step
	// budget and spec arguments.
	ActorCommand []string
	// Checkpoint, when set, makes training write its full state (the
	// networks, optimizer moments, noise/RNG stream and progress
	// counters) to this path atomically: when training completes, and
	// with RemoteActors on an update interval too. A killed training
	// run can then continue via Resume instead of starting over.
	Checkpoint string
	// CheckpointEvery is the learner-update interval between
	// checkpoints with RemoteActors (<= 0: completion only).
	CheckpointEvery int
	// CheckpointReplay additionally snapshots the replay buffer, making
	// resumed updates bit-exact at the cost of much larger files.
	CheckpointReplay bool
	// Resume restores training state from a checkpoint file written by
	// an identically-configured earlier run before stepping.
	Resume string
}

// Policy is a trained GreenNFV controller bound to its SLA.
type Policy struct {
	slaSpec sla.SLA
	ctl     *control.GreenNFV
}

// Train runs Ape-X DDPG training for the SLA and returns the policy.
func (s *System) Train(agreement SLA, opts TrainOptions) (*Policy, error) {
	if opts.Steps <= 0 {
		return nil, errors.New("greennfv: TrainOptions.Steps must be positive")
	}
	g := control.NewGreenNFV(agreement.spec, opts.Steps, opts.Actors, s.spec.EnvSeed)
	g.Train.SamplesPerInsert = opts.SamplesPerInsert
	g.Train.CheckpointPath = opts.Checkpoint
	g.Train.CheckpointEvery = opts.CheckpointEvery
	g.Train.CheckpointReplay = opts.CheckpointReplay
	g.ResumePath = opts.Resume
	if opts.RemoteActors > 0 {
		g.Train.RemoteActors = opts.RemoteActors
		g.Train.SpawnRemote = opts.ActorCommand
		if len(g.Train.SpawnRemote) == 0 {
			g.Train.SpawnRemote = []string{"apexactor"}
		}
		g.Train.RemoteSpec = s.node(agreement.spec)
	}
	if err := g.Prepare(s.factory(agreement.spec)); err != nil {
		return nil, err
	}
	return &Policy{slaSpec: agreement.spec, ctl: g}, nil
}

// TrainingCurve reports the recorded training-progress points
// (episode, throughput Gbps, energy J, efficiency). A loaded policy
// has no curve.
func (p *Policy) TrainingCurve() (episodes []int, tput, energy, efficiency []float64) {
	for _, s := range p.ctl.Curve() {
		episodes = append(episodes, s.Episode)
		tput = append(tput, s.ThroughputGbps)
		energy = append(energy, s.EnergyJ)
		efficiency = append(efficiency, s.Efficiency)
	}
	return
}

// Save writes the trained policy network to w — its parameters as one
// fixed-layout frame (internal/nn, "Parameter frame"), the same bytes
// the trainer broadcasts to its actors. A saved policy can be reloaded
// with System.LoadPolicy — the train-once / deploy-many workflow whose
// energy amortization Figure 11 quantifies.
func (p *Policy) Save(w io.Writer) error {
	if p == nil || p.ctl == nil {
		return errors.New("greennfv: nil policy")
	}
	return p.ctl.SaveActor(w)
}

// SaveCheckpoint writes the policy's serving checkpoint to w: a policy
// section (the agent configuration and the actor's parameter frame,
// under one length and CRC32 of the whole file) followed by the rest of
// the agent's training state in a fixed layout. cmd/greennfvd serves it
// reading the section alone; System.LoadPolicyCheckpoint reloads the
// whole agent. Unlike Save (actor network only), the checkpoint embeds
// the agent configuration, so loaders validate dimensions instead of
// assuming them.
func (p *Policy) SaveCheckpoint(w io.Writer) error {
	if p == nil || p.ctl == nil {
		return errors.New("greennfv: nil policy")
	}
	return p.ctl.SavePolicyState(w)
}

// LoadPolicyCheckpoint reads a checkpoint written by
// Policy.SaveCheckpoint — its policy section and the training state
// after it, read once and checked whole — validates its dimensions
// against the system's chain, and binds it to the SLA — the serve-only
// path: train once, deploy the checkpoint many times without the
// training driver. A checkpoint without the policy section, or whose
// training state is not the GNFVAGT1 layout, is refused.
func (s *System) LoadPolicyCheckpoint(agreement SLA, r io.Reader) (*Policy, error) {
	probe, err := s.node(agreement.spec).BuildEnv(0)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("greennfv: read checkpoint: %w", err)
	}
	agent, err := ddpg.LoadAgentBytes(data)
	if err != nil {
		return nil, err
	}
	if cfg := agent.Config(); cfg.StateDim != probe.StateDim() || cfg.ActionDim != probe.ActionDim() {
		return nil, fmt.Errorf("greennfv: checkpoint dims %dx%d do not match chain %dx%d",
			cfg.StateDim, cfg.ActionDim, probe.StateDim(), probe.ActionDim())
	}
	ctl := control.NewGreenNFVFromAgent(agreement.spec, agent)
	ctl.Seed = s.spec.EnvSeed
	return &Policy{slaSpec: agreement.spec, ctl: ctl}, nil
}

// WriteNodeSpec serializes the node environment contract (chain,
// workload, SLA, seed) as one line of JSON — the system's own spec,
// the file cmd/greennfvd and cmd/greennfv-agent share so controller
// and fleet agree on the environment a policy was trained for.
func (s *System) WriteNodeSpec(agreement SLA, w io.Writer) error {
	return s.node(agreement.spec).Encode(w)
}

// LoadPolicy reads a policy saved by Policy.Save — a parameter frame
// of the system's default actor shape — binding it to the given SLA
// for constraint reporting. Bytes that are not such a frame are
// refused.
func (s *System) LoadPolicy(agreement SLA, r io.Reader) (*Policy, error) {
	// State and action dimensions follow from the chain length.
	probe, err := s.node(agreement.spec).BuildEnv(0)
	if err != nil {
		return nil, err
	}
	ctl, err := control.NewGreenNFVFromActor(agreement.spec, probe.StateDim(), probe.ActionDim(), r)
	if err != nil {
		return nil, err
	}
	ctl.Seed = s.spec.EnvSeed
	return &Policy{slaSpec: agreement.spec, ctl: ctl}, nil
}

// Measure deploys the policy for several control intervals and
// returns the settled measurement.
func (s *System) Measure(p *Policy) (Measurement, error) {
	if p == nil || p.ctl == nil {
		return Measurement{}, errors.New("greennfv: nil policy")
	}
	return s.measure(p.ctl, p.slaSpec, 20, 10)
}

// BaselineName selects one of the comparison controllers.
type BaselineName string

// Comparison controllers from the paper's evaluation.
const (
	// Baseline is the untuned busy-poll platform.
	Baseline BaselineName = "baseline"
	// Heuristic is Algorithm 1 of the paper.
	Heuristic BaselineName = "heuristic"
	// EEPstate is the Iqbal & John P/C-state scheme.
	EEPstate BaselineName = "ee-pstate"
)

// MeasureBaseline runs one of the non-learning comparison controllers
// and returns its settled measurement.
func (s *System) MeasureBaseline(name BaselineName) (Measurement, error) {
	var c control.Controller
	steps, settle := 12, 6
	switch name {
	case Baseline:
		c = control.NewBaseline()
	case Heuristic:
		c = control.NewHeuristic()
		steps, settle = 400, 50
	case EEPstate:
		c = control.NewEEPstate()
		steps, settle = 50, 10
	default:
		return Measurement{}, fmt.Errorf("greennfv: unknown baseline %q", name)
	}
	agreement := sla.NewEnergyEfficiency()
	if err := c.Prepare(s.factory(agreement)); err != nil {
		return Measurement{}, err
	}
	return s.measure(c, agreement, steps, settle)
}

// measure deploys a prepared controller on the node for steps control
// intervals and reports the mean of the last settle under the
// agreement.
func (s *System) measure(c control.Controller, agreement sla.SLA, steps, settle int) (Measurement, error) {
	tput, energy, last, err := control.Run(c, s.factory(agreement), s.spec.EnvSeed+1000, steps, settle)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		ThroughputGbps:      tput,
		EnergyJ:             energy,
		EfficiencyGbpsPerKJ: tput / (energy / 1000),
		CPUPercent:          last.CPUPercent,
		PowerWatts:          last.PowerWatts,
		MissRate:            last.MissRate,
		SLASatisfied:        agreement.Satisfied(tput, energy),
	}, nil
}
