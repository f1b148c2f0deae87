package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"greennfv"
	"greennfv/internal/env"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rpcutil"
	"greennfv/internal/serve"
)

// Trainer.Run, NodeAgent.Step and sweep.Run expose no inner boundary,
// so the traced run drives replicas of their loops built only from
// public calls, with a span around each call, and asserts once that a
// replica produces what the real entry point produces.

// tracedLearner stands between the actors and the trainer's learner so
// that the experience push and the parameter pull inside Actor.Step
// show as child spans, and so that the transitions the workload really
// generated can be replayed by the layer probes.
type tracedLearner struct {
	*apex.Learner
	rec    *recorder
	pushes int
	pulls  int
	fresh  int // pulls that returned new parameters
	// kept holds the first transitions pushed, up to cap(kept).
	kept []apex.Experience
}

func (l *tracedLearner) PushExperience(batch []apex.Experience) error {
	id := l.rec.begin("apex.push_experience")
	err := l.Learner.PushExperience(batch)
	l.rec.end(id)
	l.pushes++
	if room := cap(l.kept) - len(l.kept); room > 0 {
		// The in-process learner retains pushed slices, so keeping
		// references is safe.
		l.kept = append(l.kept, batch[:min(room, len(batch))]...)
	}
	return err
}

func (l *tracedLearner) PullParams(have int) (int, []byte, error) {
	id := l.rec.begin("apex.pull_params")
	v, data, err := l.Learner.PullParams(have)
	l.rec.end(id)
	l.pulls++
	if data != nil {
		l.fresh++
	}
	return v, data, err
}

// runApexReplica is Trainer.runRoundRobin rebuilt from public calls:
// round-robin over Actors()[i].Step(learner), one Learner().LearnStep
// per step after the warm-up.
func runApexReplica(tr *apex.Trainer, cfg apex.TrainerConfig, tl *tracedLearner) error {
	rec := tl.rec
	for steps := 0; steps < cfg.TotalSteps; {
		for _, actor := range tr.Actors() {
			if steps >= cfg.TotalSteps {
				break
			}
			rec.nextTrace()
			op := rec.begin("train.step")
			id := rec.begin("apex.actor_step")
			_, _, err := actor.Step(tl)
			rec.end(id)
			if err != nil {
				return fmt.Errorf("replica actor %d: %w", actor.ID, err)
			}
			steps++
			if steps > cfg.WarmupSteps {
				for l := 0; l < cfg.LearnPerStep; l++ {
					id := rec.begin("apex.learn_step")
					tr.Learner().LearnStep(cfg.VersionEvery)
					rec.end(id)
				}
			}
			rec.end(op)
		}
	}
	return nil
}

// checkTrainReplica asserts that the replica loop trains the policy
// greennfv.System.Train trains: same seed and budget, bit-identical
// actor network.
func checkTrainReplica(seed int64, steps int) error {
	cfg := greennfv.DefaultConfig()
	cfg.Seed = seed
	sys, err := greennfv.NewSystem(cfg)
	if err != nil {
		return err
	}
	policy, err := sys.Train(greennfv.EfficiencySLA(), greennfv.TrainOptions{Steps: steps, Actors: trainActors})
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := policy.Save(&want); err != nil {
		return err
	}
	tr, tcfg, err := newRRTrainer(seed, steps)
	if err != nil {
		return err
	}
	if err := runApexReplica(tr, tcfg, &tracedLearner{Learner: tr.Learner()}); err != nil {
		return err
	}
	got, err := tr.Learner().Agent().ActorBytes()
	if err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got) {
		return errors.New("training replica diverged from System.Train: actor networks differ")
	}
	return nil
}

// replicaNode is NodeAgent.Step's vetted path rebuilt from public
// calls: observe, Controller.Report over rpcutil, local guardrail
// re-check, SetKnobs. It has no local ladder: a hold or an RPC error
// is a failed tick.
type replicaNode struct {
	id    string
	env   *env.Env
	conn  *rpcutil.Conn
	epoch uint64
	guard serve.Guardrail
	obs   []float64
	rec   *recorder
	res   perfmodel.Result
	ok    bool
}

func newReplicaNode(rec *recorder) func(fx *fixture, addr string, rank int) (node, error) {
	return func(fx *fixture, addr string, rank int) (node, error) {
		e, err := fx.spec.BuildEnv(rank)
		if err != nil {
			return nil, err
		}
		conn, err := rpcutil.Dial(addr, serve.DefaultCallTimeout)
		if err != nil {
			return nil, err
		}
		var reply serve.RegisterNodeReply
		if err := conn.Call("Controller.Register", &serve.RegisterNodeArgs{NodeID: nodeID(rank)}, &reply); err != nil {
			conn.Close()
			return nil, err
		}
		return &replicaNode{
			id: nodeID(rank), env: e, conn: conn, epoch: reply.Epoch, rec: rec,
			guard: serve.Guardrail{Model: perfmodel.Default(), Chain: e.Chain(), Bounds: e.Bounds(), SLA: e.SLA()},
			obs:   make([]float64, e.StateDim()),
		}, nil
	}
}

func (n *replicaNode) step(time.Time) error {
	n.ok = false
	id := n.rec.begin("env.observe")
	n.env.ObserveInto(n.obs)
	tr := n.env.LastTraffic()
	n.rec.end(id)

	var reply serve.ReportReply
	id = n.rec.begin("serve.report_rtt")
	err := n.conn.Call("Controller.Report", &serve.ReportArgs{NodeID: n.id, Epoch: n.epoch, Obs: n.obs, Traffic: tr}, &reply)
	n.rec.end(id)
	if err != nil {
		return err
	}
	if reply.Hold {
		return errors.New("controller held")
	}

	id = n.rec.begin("serve.agent_guardrail")
	_, err = n.guard.Check(reply.Config, tr)
	n.rec.end(id)
	if err != nil {
		return err
	}

	id = n.rec.begin("env.set_knobs")
	res, err := n.env.SetKnobs(reply.Config)
	n.rec.end(id)
	if err != nil {
		return err
	}
	n.res, n.ok = res, true
	return nil
}

func (n *replicaNode) vetted() bool                 { return n.ok }
func (n *replicaNode) Env() *env.Env                { return n.env }
func (n *replicaNode) LastResult() perfmodel.Result { return n.res }
func (n *replicaNode) Close() error                 { return n.conn.Close() }

// checkServeReplica asserts that a fleet of replica nodes ends where a
// fleet of real NodeAgents ends: both restart from the seed state, run
// the same rounds with a policy reload in the middle, and must agree
// bit for bit on every node's applied knobs and last measurement and on
// the controller's counters.
func checkServeReplica(fx *fixture, rounds int) error {
	type end struct {
		knobs  [][]perfmodel.NFKnobs
		res    []perfmodel.Result
		counts []count
	}
	drive := func(name string, newNode func(*fixture, string, int) (node, error)) (end, error) {
		var e end
		f, err := stagedFleet(fx, name, 0, newNode)
		if err != nil {
			return e, err
		}
		for r := 0; r < rounds; r++ {
			if r == rounds/2 {
				if err := f.reload(); err != nil {
					return e, err
				}
			}
			if failed, err := f.round(); err != nil || failed > 0 {
				return e, fmt.Errorf("%s: round %d: %d failed ticks, %v", name, r, failed, err)
			}
		}
		out, err := f.outputs()
		if err != nil {
			return e, err
		}
		e.counts = out.counts
		for _, n := range f.nodes {
			e.knobs = append(e.knobs, n.Env().Knobs())
			e.res = append(e.res, n.LastResult())
		}
		return e, f.close()
	}
	real, err := drive("replica-check-agents", newAgentNode)
	if err != nil {
		return err
	}
	rep, err := drive("replica-check-replica", newReplicaNode(nil))
	if err != nil {
		return err
	}
	if err := sameOutputs(outputs{counts: real.counts}, outputs{counts: rep.counts}); err != nil {
		return fmt.Errorf("serve tick replica diverged from NodeAgent.Step: controller counters: %w", err)
	}
	for i := range real.knobs {
		for j := range real.knobs[i] {
			if real.knobs[i][j] != rep.knobs[i][j] {
				return fmt.Errorf("serve tick replica diverged from NodeAgent.Step: %s NF %d knobs %+v vs %+v",
					nodeID(i), j, real.knobs[i][j], rep.knobs[i][j])
			}
		}
		a, b := real.res[i], rep.res[i]
		if math.Float64bits(a.ThroughputGbps) != math.Float64bits(b.ThroughputGbps) ||
			math.Float64bits(a.EnergyJoules) != math.Float64bits(b.EnergyJoules) {
			return fmt.Errorf("serve tick replica diverged from NodeAgent.Step: %s result %v/%v vs %v/%v",
				nodeID(i), a.ThroughputGbps, a.EnergyJoules, b.ThroughputGbps, b.EnergyJoules)
		}
	}
	return nil
}
