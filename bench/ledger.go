package main

import (
	"fmt"
	"strings"
)

// ledgerRow is one line of a path's ledger: a layer's cost per
// operation and where the number came from.
type ledgerRow struct {
	name   string
	us     float64
	source string
}

// ledger decomposes one path's traced time per operation into layer
// rows that sum to it exactly: the last row is the named remainder.
type ledger struct {
	path     string
	op       string
	rows     []ledgerRow
	tracedUS float64
	realUS   float64
	notes    []string
}

func (l *ledger) add(name string, us float64, source string) {
	l.rows = append(l.rows, ledgerRow{name, us, source})
}

// close appends the remainder row so that the rows sum to the traced
// total, and returns the remainder.
func (l *ledger) close(gap, source string) float64 {
	var sum float64
	for _, r := range l.rows {
		sum += r.us
	}
	rest := l.tracedUS - sum
	l.add(gap, rest, source)
	return rest
}

func (l *ledger) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Ledger: %s (per %s)\n\n", l.path, l.op)
	fmt.Fprintf(&b, "| layer row | us/op | share | source |\n|---|---:|---:|---|\n")
	for _, r := range l.rows {
		fmt.Fprintf(&b, "| %s | %.3f | %.1f%% | %s |\n", r.name, r.us, 100*r.us/l.tracedUS, r.source)
	}
	fmt.Fprintf(&b, "| **traced total** | %.3f | 100.0%% | replica wall time / ops |\n", l.tracedUS)
	fmt.Fprintf(&b, "| untraced entry point | %.3f | %.1f%% | real workload, one rep after every traced rep |\n", l.realUS, 100*l.realUS/l.tracedUS)
	fmt.Fprintf(&b, "\ntracing overhead: %+.1f%% of the untraced time per op\n", 100*(l.tracedUS-l.realUS)/l.realUS)
	for _, n := range l.notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// perOp is a span name's self time per operation, in µs at the
// undisturbed pace.
func (p *pathTrace) perOp(lts []layerTime, name string) float64 {
	return layer(lts, name).selfS * 1e6 / float64(p.ops) / p.inflation
}

// totalPerOp is perOp with the children's time included.
func (p *pathTrace) totalPerOp(lts []layerTime, name string) float64 {
	return layer(lts, name).totalS * 1e6 / float64(p.ops) / p.inflation
}

// apexRows decomposes a traced training-loop replica. Span rows are
// measured in the replica; probe rows are the layer's public function
// replayed on recorded inputs, scaled by how often a step calls it.
func apexRows(l *ledger, m *ledgerMetrics, pt *pathTrace, suffix string, pushesPerStep, versionsPerStep, freshPerStep float64) {
	lts := selfTimes(pt.spans)
	envStep := m.get("env.step_into_us")
	if suffix != "" {
		envStep = m.get("env.cluster_step_head_us")
	}
	l.add("env.step_into"+suffix, envStep, "probe x 1/step")
	l.add("ddpg.act_into"+suffix, m.get("ddpg.act_into"+suffix+"_us"), "probe x 1/step")
	if suffix == "" {
		l.add("ddpg.td_error_batch", m.get("ddpg.td_error_batch_us")*pushesPerStep, fmt.Sprintf("probe x %.4f flushes/step", pushesPerStep))
	}
	l.add("replay.add_batch (apex.push_experience)", pt.perOp(lts, "apex.push_experience"), "span")
	actorBytes := m.get("ddpg.actor_bytes_us") * versionsPerStep
	loadBytes := m.get("ddpg.load_actor_bytes_us") * freshPerStep
	pull := pt.perOp(lts, "apex.pull_params")
	if suffix == "" {
		l.add("apex.broadcast (actor_bytes + pull_params + load_actor_bytes)", actorBytes+pull+loadBytes,
			fmt.Sprintf("probes x %.4f versions, %.4f fresh pulls/step + span", versionsPerStep, freshPerStep))
		l.add("ddpg.learn (apex.learn_step minus actor_bytes)", pt.perOp(lts, "apex.learn_step")-actorBytes, "span - probe")
	} else {
		l.add("apex.pull_params", pull, "span")
		l.add("ddpg.learn + actor_bytes (apex.learn_step)", pt.perOp(lts, "apex.learn_step"), "span")
	}
}

func trainLedger(m *ledgerMetrics, pt *pathTrace) ledger {
	l := ledger{path: pt.name, op: pt.op, tracedUS: pt.totalUS(), realUS: pt.realUS}
	lts := selfTimes(pt.spans)
	l.add("apex.new_trainer (once per System.Train)", pt.buildUS, "timed call / steps")
	pushes := m.get("apex.pushes_per_step")
	versions := m.get("apex.param_versions_per_kstep") / 1000
	fresh := m.get("apex.fresh_pulls_per_kstep") / 1000
	apexRows(&l, m, pt, "", pushes, versions, fresh)
	rest := l.close("apex.self_us_per_step (gap: arena, TD settle, loop, spans)", "traced total - rows above")

	actorBytes := m.get("ddpg.actor_bytes_us") * versions
	loadBytes := m.get("ddpg.load_actor_bytes_us") * fresh
	m.set("apex.actor_step_us", pt.totalPerOp(lts, "apex.actor_step"))
	m.set("apex.learn_step_us", pt.totalPerOp(lts, "apex.learn_step"))
	m.set("apex.broadcast_us", actorBytes+loadBytes+pt.perOp(lts, "apex.pull_params"))
	m.set("apex.self_us_per_step", rest)
	m.set("ddpg.learn_share", (pt.perOp(lts, "apex.learn_step")-actorBytes)/pt.tracedUS)
	m.set("train.replica_us_per_step", pt.tracedUS)
	m.set("apex.broadcast_allocs_per_step", m.aux["actor_bytes_allocs"]*versions+m.aux["load_actor_bytes_allocs"]*fresh)
	m.set("apex.broadcast_bytes_per_step", m.aux["actor_bytes_bytes"]*versions+m.aux["load_actor_bytes_bytes"]*fresh)
	l.notes = append(l.notes, fmt.Sprintf(
		"broadcast allocations: %.2f allocs and %.0f B per step (ActorBytes %.0f allocs / %.0f B on %.4f of steps, LoadActorBytes %.0f allocs / %.0f B on %.4f).",
		m.get("apex.broadcast_allocs_per_step"), m.get("apex.broadcast_bytes_per_step"),
		m.aux["actor_bytes_allocs"], m.aux["actor_bytes_bytes"], versions,
		m.aux["load_actor_bytes_allocs"], m.aux["load_actor_bytes_bytes"], fresh))
	return l
}

func serveLedger(m *ledgerMetrics, pt *pathTrace) ledger {
	l := ledger{path: pt.name, op: pt.op, tracedUS: pt.tracedUS, realUS: pt.realUS}
	lts := selfTimes(pt.spans)
	rtt := pt.perOp(lts, "serve.report_rtt")
	m.set("serve.report_rtt_us", rtt)
	persist := m.get("serve.state_save_us") * m.get("serve.config_changes_per_tick")
	controller := m.get("serve.infer_us") + m.get("serve.decode_action_us") + m.get("serve.limiter_us") +
		m.get("serve.guardrail_check_us") + persist
	m.set("rpcutil.transport_us", rtt-controller)

	l.add("env.observe", pt.perOp(lts, "env.observe"), "span")
	l.add("serve.infer (ddpg.ActInto, greedy)", m.get("serve.infer_us"), "probe, inside report_rtt")
	l.add("serve.decode_action", m.get("serve.decode_action_us"), "probe, inside report_rtt")
	l.add("serve.limiter", m.get("serve.limiter_us"), "probe, inside report_rtt")
	l.add("serve.guardrail_check (controller)", m.get("serve.guardrail_check_us"), "probe, inside report_rtt")
	l.add("serve.persist (state_save x config changes)", persist,
		fmt.Sprintf("probe x %.4f changes/tick, inside report_rtt", m.get("serve.config_changes_per_tick")))
	l.add("rpcutil.transport_us (gap: report_rtt minus the five rows above)", rtt-controller, "span - probes")
	l.add("serve.agent_guardrail", pt.perOp(lts, "serve.agent_guardrail"), "span")
	l.add("env.set_knobs", pt.perOp(lts, "env.set_knobs"), "span")
	if reload := pt.perOp(lts, "serve.reload_policy"); reload > 0 {
		l.add("serve.reload_policy", reload, "span, amortised over the ticks between reloads")
	}
	l.close("bench.loop (tick bookkeeping, checks, spans)", "traced total - rows above")
	l.notes = append(l.notes, fmt.Sprintf(
		"rpcutil.echo_rtt_us (empty method, transport floor) %.2f; gob encode %.2f + decode %.2f for %.0f wire bytes per report; state file rewrites per tick %.4f.",
		m.get("rpcutil.echo_rtt_us"), m.get("rpcutil.gob_encode_us"), m.get("rpcutil.gob_decode_us"),
		m.get("rpcutil.report_wire_bytes"), m.get("serve.state_writes_per_tick")))
	return l
}

func sweepLedger(m *ledgerMetrics, cells, wide *pathTrace, sz sizes) ledger {
	l := ledger{path: cells.name, op: cells.op, tracedUS: cells.tracedUS, realUS: cells.realUS}
	// A cell trains sz.sweepTrain steps: the per-step rows of the
	// cluster training replica, times the steps, are the train phase.
	steps := float64(sz.sweepTrain)
	step := ledger{tracedUS: wide.tracedUS}
	pushes := float64(layer(selfTimes(wide.spans), "apex.push_experience").count) / float64(wide.ops)
	apexRows(&step, m, wide, "_wide", pushes, 0, 0)
	step.close("apex self (gap: arena, TD settle, loop, spans)", "")
	for _, r := range step.rows {
		l.add("train: "+r.name, r.us*steps, fmt.Sprintf("cluster replica row x %d steps", sz.sweepTrain))
	}
	trainUS := m.get("sweep.train_s_per_cell") * 1e6
	l.add("train: remainder (NewTrainer, NewCluster x actors, placement solve; pinned cells have a narrower action)",
		trainUS-wide.tracedUS*steps, "sweep.train span - replica")
	l.close("sweep.measure (control steps on a fresh ClusterEnv) + cell bookkeeping", "traced total - rows above")
	l.notes = append(l.notes, fmt.Sprintf(
		"sweep.Run reports a cell's TrainSeconds itself: %.4f s of a %.4f s cell. The replica is the DRL-head cell's loop (%.1f us/step); placement.ffd_swap_solve_us %.1f and placement.relaxation_solve_us %.1f run once per pinned environment.",
		m.get("sweep.train_s_per_cell"), cells.tracedUS/1e6, wide.tracedUS,
		m.get("placement.ffd_swap_solve_us"), m.get("placement.relaxation_solve_us")))
	return l
}
