package control

import (
	"errors"
	"fmt"
	"io"

	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

// GreenNFV is the paper's controller: a DDPG policy trained with the
// Ape-X distributed prioritized-replay architecture, deployed
// greedily at control time, on the poll/callback platform with NF
// sleeping. It trains and steps over any env.Stepper (TrainOn,
// StepOn): on a multi-node env.ClusterEnv the same policy carries a
// knob block per chain and, when placement is left to the agent, the
// placement logit head. Prepare and Step — the Controller interface
// the single-host comparison runs through — are the *env.Env case.
type GreenNFV struct {
	slaSpec sla.SLA
	// Train configures the Ape-X run TrainOn starts: NewGreenNFV fills
	// it from apex.DefaultTrainerConfig and callers set the mode,
	// pacing, remote-fleet and checkpoint fields directly. TrainOn
	// supplies StepperFactory, AgentConfig and the seeds.
	Train apex.TrainerConfig
	// Seed fixes training randomness.
	Seed int64
	// ResumePath, when set, restores training state from that
	// checkpoint before stepping, so a killed training run continues
	// mid-budget instead of starting over. The configuration must
	// match the run that wrote the checkpoint.
	ResumePath string

	// curve is the training run's recorded curve (apex.Trainer's
	// Snapshots); nil for a loaded policy and for remote training.
	curve []apex.Snapshot
	// agent is the deployed policy network: the learner's agent, its
	// training memory released, after TrainOn, or a loaded agent.
	agent *ddpg.Agent
	// state is the last observation of on, the environment StepOn is
	// driving; a different environment starts from its own reset.
	// action is StepOn's reused action buffer.
	state, action []float64
	on            env.Stepper
}

// NewGreenNFV builds the controller for one SLA with a trainSteps
// budget ("episodes") over actors Ape-X workers (<= 0: the default).
func NewGreenNFV(s sla.SLA, trainSteps, actors int, seed int64) *GreenNFV {
	g := &GreenNFV{slaSpec: s, Train: apex.DefaultTrainerConfig(trainSteps), Seed: seed}
	if actors > 0 {
		g.Train.Actors = actors
	}
	return g
}

// Name implements Controller.
func (g *GreenNFV) Name() string {
	switch g.slaSpec.Kind {
	case sla.MaxThroughput:
		return "GreenNFV(MaxT)"
	case sla.MinEnergy:
		return "GreenNFV(MinE)"
	default:
		return "GreenNFV(EE)"
	}
}

// Options implements Controller: the GreenNFV platform (zero value:
// poll/callback mix, deep C-states).
func (g *GreenNFV) Options() perfmodel.EvalOptions { return perfmodel.EvalOptions{} }

// Prepare implements Controller: run Ape-X training on single-host
// environments of this controller's platform variant.
func (g *GreenNFV) Prepare(factory EnvFactory) error {
	if factory == nil {
		return errors.New("control: GreenNFV needs an environment factory")
	}
	return g.TrainOn(func(seed int64) (env.Stepper, error) { return factory(seed, g.Options()) })
}

// TrainOn runs Ape-X training over the environments the factory
// builds, one per actor (actor i gets seed Seed + 131·i). The factory
// owns topology, workload and placement policy. Round-robin and
// Parallel step whatever it builds; RemoteActors ignores it and
// rebuilds *env.Env in the actor processes (apex.ActorSpec.BuildEnv),
// so cluster environments train in-process only. Once the run (and its
// completion checkpoint) is done, the controller keeps the learner's
// agent, with its training memory released
// (ddpg.Agent.ReleaseTrainingMemory), and the curve; the trainer, its
// actors and their environments go.
func (g *GreenNFV) TrainOn(factory func(seed int64) (env.Stepper, error)) error {
	cfg := g.Train
	cfg.StepperFactory = func(actorID int) (env.Stepper, error) {
		return factory(g.Seed + int64(actorID)*131)
	}
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0)
	cfg.AgentConfig.Seed = g.Seed
	trainer, err := apex.NewTrainer(cfg)
	if err != nil {
		return err
	}
	if g.ResumePath != "" {
		if err := trainer.Resume(g.ResumePath); err != nil {
			return err
		}
	}
	if err := trainer.Run(); err != nil {
		return fmt.Errorf("control: GreenNFV training: %w", err)
	}
	g.curve = trainer.Snapshots
	g.agent = trainer.Learner().Agent()
	g.agent.ReleaseTrainingMemory()
	return nil
}

// SaveActor serializes the deployed policy network. The checkpoint
// is what the paper amortizes: "the model needs to be trained only
// once before deployment and is run many times".
func (g *GreenNFV) SaveActor(w io.Writer) error {
	if g.agent == nil {
		return errors.New("control: GreenNFV has no trained policy")
	}
	data, err := g.agent.ActorBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SavePolicyState writes the deployed policy's serving checkpoint
// (ddpg.Agent.SaveState without replay): the policy section the serving
// plane (internal/serve, cmd/greennfvd) reads, then the agent's training
// state, which LoadAgentBytes reads too.
func (g *GreenNFV) SavePolicyState(w io.Writer) error {
	if g.agent == nil {
		return errors.New("control: GreenNFV has no trained policy")
	}
	return g.agent.SaveState(w, false)
}

// NewGreenNFVFromAgent builds a deploy-only controller around an
// already-loaded agent (no trainer, no further learning).
func NewGreenNFVFromAgent(s sla.SLA, agent *ddpg.Agent) *GreenNFV {
	return &GreenNFV{slaSpec: s, agent: agent}
}

// NewGreenNFVFromActor builds a deploy-only controller from a saved
// policy file — the actor's parameter frame, as Policy.Save writes it —
// for the default agent shape at these dimensions (no trainer, no
// further learning). Anything else is refused (ddpg.View.LoadActorBytes).
func NewGreenNFVFromActor(s sla.SLA, stateDim, actionDim int, r io.Reader) (*GreenNFV, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	cfg := ddpg.DefaultConfig(stateDim, actionDim)
	agent, err := ddpg.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := agent.LoadActorBytes(data); err != nil {
		return nil, fmt.Errorf("control: load actor: %w", err)
	}
	return &GreenNFV{slaSpec: s, agent: agent}, nil
}

// Curve is the training curve TrainOn recorded (for training-curve
// figures): nil for a loaded policy and after remote training.
func (g *GreenNFV) Curve() []apex.Snapshot { return g.curve }

// Step implements Controller: greedy policy action.
func (g *GreenNFV) Step(e *env.Env) (perfmodel.Result, error) { return g.StepOn(e) }

// StepOn runs one greedy policy action on the environment and returns
// its info Result (on a cluster, the roll-up — see
// env.ClusterEnv.StepInto). After the first interval on an environment
// it allocates nothing.
func (g *GreenNFV) StepOn(e env.Stepper) (perfmodel.Result, error) {
	if g.agent == nil {
		return perfmodel.Result{}, errors.New("control: GreenNFV not prepared")
	}
	if g.on != e {
		g.state, g.on = e.Reset(g.Seed+7777), e
		g.action = make([]float64, e.ActionDim())
	}
	if err := g.agent.ActInto(g.state, false, g.action); err != nil {
		return perfmodel.Result{}, err
	}
	_, info, err := e.StepInto(g.action, g.state)
	return info, err
}
