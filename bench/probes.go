package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net/rpc"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"greennfv/internal/atomicio"
	"greennfv/internal/cluster"
	"greennfv/internal/control"
	"greennfv/internal/env"
	"greennfv/internal/nn"
	"greennfv/internal/perfmodel"
	"greennfv/internal/placement"
	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/rl/replay"
	"greennfv/internal/rpcutil"
	"greennfv/internal/serve"
	"greennfv/internal/sla"
)

// A layer probe times one public function of one layer, replayed on
// twin objects with inputs the workloads recorded. Every probe is a
// fixed number of calls: five batches of iters calls, reported as the
// median batch's mean in microseconds at the undisturbed pace.

const probeBatches = 5

func timeOp(iters int, f func()) float64 {
	f() // warm scratch and caches
	per := make([]float64, probeBatches)
	for b := range per {
		us, _ := usAtPace(func() error {
			for i := 0; i < iters; i++ {
				f()
			}
			return nil
		})
		per[b] = us / float64(iters)
	}
	return median(per)
}

// allocsOp reports the allocations and bytes one call of f makes on
// the driver goroutine, averaged over iters calls.
func allocsOp(iters int, f func()) (allocs, bytes float64) {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(iters), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters)
}

// ledgerMetrics collects the per-layer metrics by name. Their units are
// perLayerSpecs', the table BENCHMARK.json is written from, so what a
// run prints cannot disagree with the manifest.
type ledgerMetrics struct {
	order []string
	vals  map[string]float64
	// aux holds intermediate figures the ledgers combine but that are
	// not metrics themselves.
	aux map[string]float64
}

func newLedgerMetrics() *ledgerMetrics {
	return &ledgerMetrics{vals: map[string]float64{}, aux: map[string]float64{}}
}

func (l *ledgerMetrics) set(name string, v float64) {
	if _, ok := l.vals[name]; !ok {
		l.order = append(l.order, name)
	}
	l.vals[name] = v
}

func (l *ledgerMetrics) get(name string) float64 { return l.vals[name] }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// probeErr turns a probe's panic(err) into an error: probes call
// public functions whose errors cannot occur on the recorded inputs,
// and a closure timed a million times should not thread an error out.
func probeErr(name string, f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe %s: %v", name, r)
		}
	}()
	f()
	return nil
}

func toTransitions(exps []apex.Experience) []replay.Transition {
	ts := make([]replay.Transition, len(exps))
	for i, e := range exps {
		ts[i] = replay.Transition{State: e.State, Action: e.Action, Reward: e.Reward, NextState: e.NextState}
	}
	return ts
}

func priorities(exps []apex.Experience) []float64 {
	ps := make([]float64, len(exps))
	for i, e := range exps {
		ps[i] = e.Priority + 1e-3
	}
	return ps
}

// filledAgent builds a default-config agent of the given dimensions
// whose replay holds the recorded transitions.
func filledAgent(stateDim, actionDim int, seed int64, exps []apex.Experience) *ddpg.Agent {
	cfg := ddpg.DefaultConfig(stateDim, actionDim)
	cfg.Seed = seed
	a, err := ddpg.New(cfg)
	must(err)
	a.ObserveBatch(toTransitions(exps), priorities(exps))
	return a
}

// criticInputs lays rows recorded (state, action) pairs out as one
// critic input batch and returns it with the critic's input width.
func criticInputs(exps []apex.Experience, rows int) (x []float64, in int) {
	in = len(exps[0].State) + len(exps[0].Action)
	x = make([]float64, 0, rows*in)
	for r := 0; r < rows; r++ {
		e := exps[r%len(exps)]
		x = append(x, e.State...)
		x = append(x, e.Action...)
	}
	return x, in
}

// probeNN times the batch engine at one workload's critic shape.
func probeNN(m *ledgerMetrics, suffix string, exps []apex.Experience) {
	const rows = 32
	x, in := criticInputs(exps, rows)
	rng := rand.New(rand.NewSource(1))
	net := nn.MustMLP([]int{in, 48, 48, 1}, nn.ReLU, nn.Linear, rng)
	dOut := make([]float64, rows)
	for i := range dOut {
		dOut[i] = rng.NormFloat64()
	}
	m.set("nn.forward_batch"+suffix+"_us", timeOp(2000, func() { net.ForwardBatch(x, rows) }))
	net.ForwardBatch(x, rows)
	m.set("nn.backward_batch"+suffix+"_us", timeOp(2000, func() { net.BackwardBatch(dOut, rows) }))
	m.set("nn.forward_rows"+suffix+"_us", timeOp(2000, func() { net.ForwardRows(x, 8) }))
	if suffix != "" {
		return
	}
	// f32 parity rows: no end-to-end workload runs this engine.
	net32 := nn.MustMLP([]int{in, 48, 48, 1}, nn.ReLU, nn.Linear, rand.New(rand.NewSource(1)))
	net32.EnableF32()
	x32 := make([]float32, len(x))
	for i, v := range x {
		x32[i] = float32(v)
	}
	d32 := make([]float32, rows)
	for i, v := range dOut {
		d32[i] = float32(v)
	}
	m.set("nn.forward_batch_f32_us", timeOp(2000, func() { net32.ForwardBatchF32(x32, rows) }))
	net32.ForwardBatchF32(x32, rows)
	m.set("nn.backward_batch_f32_us", timeOp(2000, func() { net32.BackwardBatchF32(d32, rows) }))
}

// probeDDPG times the agent's public calls at one workload's
// dimensions.
func probeDDPG(m *ledgerMetrics, suffix string, seed int64, exps []apex.Experience) {
	sd, ad := len(exps[0].State), len(exps[0].Action)
	a := filledAgent(sd, ad, seed, exps)
	m.set("ddpg.learn"+suffix+"_us", timeOp(300, func() { a.Learn() }))
	dst := make([]float64, ad)
	i := 0
	m.set("ddpg.act_into"+suffix+"_us", timeOp(5000, func() {
		must(a.ActInto(exps[i%len(exps)].State, true, dst))
		i++
	}))
	if suffix != "" {
		return
	}
	batch := toTransitions(exps[:8])
	var td []float64
	m.set("ddpg.td_error_batch_us", timeOp(2000, func() { td = a.TDErrorBatch(batch, td) }))
	var blob []byte
	m.set("ddpg.actor_bytes_us", timeOp(300, func() {
		var err error
		blob, err = a.ActorBytes()
		must(err)
	}))
	m.set("ddpg.load_actor_bytes_us", timeOp(300, func() { must(a.LoadActorBytes(blob)) }))
	m.aux["actor_bytes_allocs"], m.aux["actor_bytes_bytes"] = allocsOp(100, func() {
		_, err := a.ActorBytes()
		must(err)
	})
	m.aux["load_actor_bytes_allocs"], m.aux["load_actor_bytes_bytes"] = allocsOp(100, func() { must(a.LoadActorBytes(blob)) })

	// f32 parity rows: sharded replay, f32 learn and act, as the
	// Parallel trainer runs them.
	cfg := a.Config()
	b, err := ddpg.New(cfg)
	must(err)
	sharded, err := replay.NewSharded(cfg.BufferCap, 8, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, cfg.Seed)
	must(err)
	must(b.SetReplay(sharded))
	b.SetFloat32(true)
	b.ObserveBatch(toTransitions(exps), priorities(exps))
	rng := rand.New(rand.NewSource(5))
	samples := make([]replay.Transition, 0, cfg.BatchSize)
	indices := make([]int, 0, cfg.BatchSize)
	weights := make([]float64, 0, cfg.BatchSize)
	m.set("ddpg.learn_batch_f32_us", timeOp(300, func() {
		s, idx, w := b.SampleReplayInto(rng, cfg.BatchSize, samples, indices, weights)
		b.LearnBatch(s, idx, w)
	}))
	c, err := ddpg.New(cfg)
	must(err)
	c.SetActFloat32(true)
	states := make([]float64, 0, trainActors*sd)
	for r := 0; r < trainActors; r++ {
		states = append(states, exps[r].State...)
	}
	acts := make([]float64, trainActors*ad)
	m.set("ddpg.act_batch_f32_us", timeOp(3000, func() { must(c.ActBatch(states, trainActors, nil, acts)) }))
}

// probeReplay times both replay buffers on recorded transitions.
func probeReplay(m *ledgerMetrics, exps []apex.Experience) {
	cfg := ddpg.DefaultConfig(1, 1)
	ts, ps := toTransitions(exps), priorities(exps)
	p, err := replay.NewPrioritized(cfg.BufferCap, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc)
	must(err)
	p.AddBatch(ts, ps)
	off := 0
	chunk := func() ([]replay.Transition, []float64) {
		off = (off + 8) % (len(ts) - 8)
		return ts[off : off+8], ps[off : off+8]
	}
	m.set("replay.add_batch_us", timeOp(5000, func() { p.AddBatch(chunk()) }))
	rng := rand.New(rand.NewSource(7))
	samples := make([]replay.Transition, 0, cfg.BatchSize)
	indices := make([]int, 0, cfg.BatchSize)
	weights := make([]float64, 0, cfg.BatchSize)
	m.set("replay.sample_into_us", timeOp(5000, func() {
		samples, indices, weights = p.SampleInto(rng, cfg.BatchSize, samples, indices, weights)
	}))
	tds := make([]float64, len(indices))
	for i := range tds {
		tds[i] = rng.Float64()
	}
	m.set("replay.update_priorities_us", timeOp(5000, func() { p.UpdatePrioritiesBatch(indices, tds) }))

	s, err := replay.NewSharded(cfg.BufferCap, 8, cfg.PERAlpha, cfg.PERBeta, cfg.PERBetaInc, 1)
	must(err)
	s.AddBatch(ts, ps)
	m.set("replay.sharded_add_batch_us", timeOp(5000, func() { s.AddBatch(chunk()) }))
	m.set("replay.sharded_sample_into_us", timeOp(5000, func() {
		samples, indices, weights = s.SampleInto(rng, cfg.BatchSize, samples, indices, weights)
	}))
}

// probeEnv times the model and the environments on recorded actions.
func probeEnv(m *ledgerMetrics, seed int64, exps, wide []apex.Experience) {
	model := perfmodel.Default()
	chain := perfmodel.StandardChain()
	e, err := nodeEnv(seed, env.StandardWorkload())
	must(err)
	obs := make([]float64, e.StateDim())
	i := 0
	m.set("env.step_into_us", timeOp(5000, func() {
		_, _, err := e.StepInto(exps[i%len(exps)].Action, obs)
		must(err)
		i++
	}))
	knobs, tr := e.Knobs(), e.LastTraffic()
	var res perfmodel.Result
	eval := func() { must(model.EvaluateInto(&res, chain, knobs, tr, perfmodel.EvalOptions{})) }
	m.set("perfmodel.evaluate_into_us", timeOp(5000, eval))
	allocs, _ := allocsOp(1000, eval)
	m.set("perfmodel.evaluate_allocs", allocs)
	m.set("env.observe_setknobs_us", timeOp(5000, func() {
		e.ObserveInto(obs)
		_, err := e.SetKnobs(knobs)
		must(err)
	}))

	for _, c := range []struct {
		name string
		pol  placement.Policy
	}{{"env.cluster_step_head_us", nil}, {"env.cluster_step_pinned_us", placement.FFDSwap{}}} {
		ce, err := clusterEnv(seed, c.pol)
		must(err)
		cobs := make([]float64, ce.StateDim())
		act := make([]float64, ce.ActionDim())
		j := 0
		m.set(c.name, timeOp(2000, func() {
			// The recorded wide actions come from the DRL-head env;
			// the pinned env's action vector is their knob prefix.
			copy(act, wide[j%len(wide)].Action)
			_, _, err := ce.StepInto(act, cobs)
			must(err)
			j++
		}))
	}
}

// probeCluster times cluster evaluation and the placement solvers on
// the sweep cell's workload.
func probeCluster(m *ledgerMetrics) {
	chains, hops := env.StandardClusterChains(sweepChains)
	w := cluster.Workload{Hops: hops, LatencyBudgetNs: 150e3}
	knobs := make([][]perfmodel.NFKnobs, len(chains))
	assign := make([]int, len(chains))
	for i, c := range chains {
		tr, err := env.Aggregate(c.Flows)
		must(err)
		w.Chains = append(w.Chains, cluster.ChainLoad{Chain: c.Chain, Traffic: tr})
		knobs[i] = perfmodel.DefaultKnobs(len(c.Chain.NFs))
		assign[i] = i % sweepNodes
	}
	topo := cluster.Heterogeneous(sweepNodes)
	var res cluster.Result
	eval := func() { must(topo.EvaluateClusterInto(&res, &w, knobs, assign, perfmodel.EvalOptions{})) }
	m.set("cluster.evaluate_into_us", timeOp(3000, eval))
	allocs, _ := allocsOp(1000, eval)
	m.set("cluster.evaluate_allocs", allocs)
	problem := w.PlacementProblem(&topo)
	m.set("placement.ffd_swap_solve_us", timeOp(1000, func() {
		_, err := placement.FFDSwap{}.Solve(problem)
		must(err)
	}))
	m.set("placement.relaxation_solve_us", timeOp(1000, func() {
		_, err := placement.Relaxation{}.Solve(problem)
		must(err)
	}))
}

// Echo is the benchmark's own RPC receiver: an empty method, so a call
// costs only the transport.
type Echo struct{}

// Ping does nothing.
func (*Echo) Ping(args *int, reply *int) error { return nil }

// probeRPC times the transport floor and the report's serialization.
func probeRPC(m *ledgerMetrics, args *serve.ReportArgs, reply *serve.ReportReply) {
	srv, err := rpcutil.Serve("Echo", &Echo{}, "127.0.0.1:0")
	must(err)
	defer srv.Close()
	var conns []*rpcutil.Conn
	m.set("rpcutil.dial_us", timeOp(20, func() {
		c, err := rpcutil.Dial(srv.Addr(), serve.DefaultCallTimeout)
		must(err)
		conns = append(conns, c)
	}))
	conn := conns[0]
	var in, out int
	m.set("rpcutil.echo_rtt_us", timeOp(3000, func() { must(conn.Call("Echo.Ping", &in, &out)) }))
	for _, c := range conns {
		c.Close()
	}

	// One encoder per direction, as a net/rpc connection keeps: type
	// descriptors cross once, so the steady-state message is what a
	// report costs on the wire.
	var wire bytes.Buffer
	enc := gob.NewEncoder(&wire)
	dec := gob.NewDecoder(&wire)
	req := rpc.Request{ServiceMethod: "Controller.Report", Seq: 1}
	resp := rpc.Response{ServiceMethod: "Controller.Report", Seq: 1}
	encode := func() {
		must(enc.Encode(&req))
		must(enc.Encode(args))
		must(enc.Encode(&resp))
		must(enc.Encode(reply))
	}
	decode := func() {
		var (
			rq rpc.Request
			a  serve.ReportArgs
			rs rpc.Response
			rp serve.ReportReply
		)
		must(dec.Decode(&rq))
		must(dec.Decode(&a))
		must(dec.Decode(&rs))
		must(dec.Decode(&rp))
	}
	encode()
	decode()
	encode()
	m.set("rpcutil.report_wire_bytes", float64(wire.Len()))
	decode()
	// Encode and decode must alternate on one stream, so time them
	// inside a round trip.
	var encNs, decNs int64
	const rounds = 3000
	t, _ := timed(shortSide, func() error {
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			encode()
			t1 := time.Now()
			decode()
			encNs += t1.Sub(t0).Nanoseconds()
			decNs += time.Since(t1).Nanoseconds()
		}
		return nil
	})
	m.set("rpcutil.gob_encode_us", float64(encNs)/rounds/1e3/t.inflation())
	m.set("rpcutil.gob_decode_us", float64(decNs)/rounds/1e3/t.inflation())
}

// probeServe times the controller-side steps of a report, the state
// store and the restart path, on the fixture's policy and on a report
// the fleet really sent.
func probeServe(m *ledgerMetrics, fx *fixture) error {
	blob, err := os.ReadFile(fx.policyA)
	if err != nil {
		return err
	}
	e, err := fx.spec.BuildEnv(0)
	if err != nil {
		return err
	}
	obs := e.ObserveInto(make([]float64, e.StateDim()))
	tr := e.LastTraffic()
	agent, err := ddpg.LoadAgentBytes(blob)
	if err != nil {
		return err
	}
	action := make([]float64, e.ActionDim())
	m.set("serve.infer_us", timeOp(5000, func() { must(agent.ActInto(obs, false, action)) }))
	knobs := make([]perfmodel.NFKnobs, e.NumNFs())
	decode := func() {
		for i := range knobs {
			knobs[i] = e.DecodeAction(action[i*env.KnobsPerNF : (i+1)*env.KnobsPerNF])
		}
	}
	m.set("serve.decode_action_us", timeOp(5000, decode))
	lim := serve.DefaultLimiter()
	lim.Record(perfmodel.DefaultKnobs(e.NumNFs()))
	m.set("serve.limiter_us", timeOp(5000, func() { lim.Record(lim.Limit(knobs)) }))
	guard := serve.Guardrail{Model: perfmodel.Default(), Chain: e.Chain(), Bounds: e.Bounds(), SLA: e.SLA()}
	vetted := append([]perfmodel.NFKnobs(nil), lim.Limit(knobs)...)
	m.set("serve.guardrail_check_us", timeOp(5000, func() {
		_, err := guard.Check(vetted, tr)
		must(err)
	}))
	m.set("ddpg.load_state_us", timeOp(50, func() {
		_, err := ddpg.LoadAgentBytes(blob)
		must(err)
	}))
	m.set("control.measure_us", timeOp(50, func() {
		c := control.NewGreenNFVFromAgent(sla.NewEnergyEfficiency(), agent)
		_, _, _, err := control.Run(c, func(seed int64, opts perfmodel.EvalOptions) (*env.Env, error) {
			return nodeEnv(seed, env.StandardWorkload())
		}, fx.spec.EnvSeed+1000, 20, 10)
		must(err)
	}))

	// State store at the fleet's real payload: the policy blob plus a
	// last-known-good config per node.
	st := &serve.ControllerState{PolicyBlob: blob, PolicyVersion: 1, LastGood: map[string][]perfmodel.NFKnobs{}}
	for i := 0; i < fx.sz.fleet; i++ {
		st.LastGood[nodeID(i)] = vetted
	}
	path := filepath.Join(fx.dir, "probe.state")
	store, err := serve.OpenStateStore(path)
	if err != nil {
		return err
	}
	m.set("serve.state_save_us", timeOp(20, func() { must(store.Save(st)) }))
	m.set("serve.state_load_us", timeOp(50, func() {
		_, err := store.Load()
		must(err)
	}))
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("serve.state_bytes", float64(info.Size()))
	payload := make([]byte, info.Size())
	raw := filepath.Join(fx.dir, "probe.raw")
	m.set("atomicio.write_file_us", timeOp(20, func() { must(atomicio.WriteFile(raw, "GNFVBNCH", payload)) }))
	m.set("atomicio.read_file_us", timeOp(50, func() {
		_, err := atomicio.ReadFile(raw, "GNFVBNCH")
		must(err)
	}))

	// Restart path: a controller resuming the state file, a dial and
	// a registration, a hot reload.
	var ctrl *serve.Controller
	m.set("serve.new_controller_us", timeOp(10, func() {
		c, err := serve.NewController(serve.Config{Spec: fx.spec, StatePath: path})
		must(err)
		ctrl = c
	}))
	if err := ctrl.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer ctrl.Close()
	conn, err := rpcutil.Dial(ctrl.Addr(), serve.DefaultCallTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	var reg serve.RegisterNodeReply
	m.set("serve.register_us", timeOp(200, func() {
		must(conn.Call("Controller.Register", &serve.RegisterNodeArgs{NodeID: nodeID(0)}, &reg))
	}))
	n := 0
	m.set("serve.reload_policy_us", timeOp(10, func() {
		n++
		p := fx.policyA
		if n%2 == 1 {
			p = fx.policyB
		}
		must(ctrl.ReloadPolicy(p))
	}))

	args := &serve.ReportArgs{NodeID: nodeID(0), Epoch: reg.Epoch, Obs: obs, Traffic: tr}
	var reply serve.ReportReply
	if err := conn.Call("Controller.Report", args, &reply); err != nil {
		return err
	}
	if reply.Hold {
		return errors.New("probe report was held")
	}
	probeRPC(m, args, &reply)
	return nil
}
