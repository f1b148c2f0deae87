package main

// layerSpec is one per-layer metric: never gated, but named, with a
// unit and a direction, in BENCHMARK.json. README.md says which
// end-to-end metric on which workload each one should move.
type layerSpec struct {
	name   string
	unit   string
	better string
}

var perLayerSpecs = []layerSpec{
	// perfmodel
	{"perfmodel.evaluate_into_us", "us", "lower"},
	{"perfmodel.evaluate_allocs", "count", "lower"},
	// env
	{"env.step_into_us", "us", "lower"},
	{"env.cluster_step_head_us", "us", "lower"},
	{"env.cluster_step_pinned_us", "us", "lower"},
	{"env.observe_setknobs_us", "us", "lower"},
	// nn
	{"nn.forward_batch_us", "us", "lower"},
	{"nn.backward_batch_us", "us", "lower"},
	{"nn.forward_rows_us", "us", "lower"},
	{"nn.forward_batch_wide_us", "us", "lower"},
	{"nn.backward_batch_wide_us", "us", "lower"},
	{"nn.forward_rows_wide_us", "us", "lower"},
	{"nn.forward_batch_f32_us", "us", "lower"},
	{"nn.backward_batch_f32_us", "us", "lower"},
	// ddpg
	{"ddpg.learn_us", "us", "lower"},
	{"ddpg.learn_wide_us", "us", "lower"},
	{"ddpg.learn_share", "share", "lower"},
	{"ddpg.act_into_us", "us", "lower"},
	{"ddpg.act_into_wide_us", "us", "lower"},
	{"ddpg.td_error_batch_us", "us", "lower"},
	{"ddpg.actor_bytes_us", "us", "lower"},
	{"ddpg.load_actor_bytes_us", "us", "lower"},
	{"ddpg.load_state_us", "us", "lower"},
	{"ddpg.learn_batch_f32_us", "us", "lower"},
	{"ddpg.act_batch_f32_us", "us", "lower"},
	// replay
	{"replay.add_batch_us", "us", "lower"},
	{"replay.sample_into_us", "us", "lower"},
	{"replay.update_priorities_us", "us", "lower"},
	{"replay.sharded_add_batch_us", "us", "lower"},
	{"replay.sharded_sample_into_us", "us", "lower"},
	// apex
	{"apex.actor_step_us", "us", "lower"},
	{"apex.learn_step_us", "us", "lower"},
	{"apex.broadcast_us", "us", "lower"},
	{"apex.self_us_per_step", "us", "lower"},
	{"apex.new_trainer_us", "us", "lower"},
	{"apex.updates_per_step", "count", "higher"},
	{"apex.pushes_per_step", "count", "lower"},
	{"apex.param_versions_per_kstep", "count", "lower"},
	{"apex.fresh_pulls_per_kstep", "count", "lower"},
	{"apex.broadcast_allocs_per_step", "count", "lower"},
	{"apex.broadcast_bytes_per_step", "B", "lower"},
	{"train.replica_us_per_step", "us", "lower"},
	// control
	{"control.measure_us", "us", "lower"},
	// serve
	{"serve.tick_p50_us", "us", "lower"},
	{"serve.tick_p99_us", "us", "lower"},
	{"serve.tick_p999_us", "us", "lower"},
	{"serve.report_rtt_us", "us", "lower"},
	{"serve.infer_us", "us", "lower"},
	{"serve.limiter_us", "us", "lower"},
	{"serve.guardrail_check_us", "us", "lower"},
	{"serve.decode_action_us", "us", "lower"},
	{"serve.state_save_us", "us", "lower"},
	{"serve.state_load_us", "us", "lower"},
	{"serve.reload_policy_us", "us", "lower"},
	{"serve.new_controller_us", "us", "lower"},
	{"serve.register_us", "us", "lower"},
	{"serve.state_writes_per_tick", "count", "lower"},
	{"serve.state_bytes", "B", "lower"},
	{"serve.config_changes_per_tick", "count", "lower"},
	{"serve.source_policy_share", "share", "higher"},
	{"serve.source_last_good_share", "share", "lower"},
	{"serve.hold_share", "share", "lower"},
	{"serve.guardrail_rejections_per_tick", "count", "lower"},
	// rpcutil
	{"rpcutil.echo_rtt_us", "us", "lower"},
	{"rpcutil.transport_us", "us", "lower"},
	{"rpcutil.gob_encode_us", "us", "lower"},
	{"rpcutil.gob_decode_us", "us", "lower"},
	{"rpcutil.report_wire_bytes", "B", "lower"},
	{"rpcutil.dial_us", "us", "lower"},
	// atomicio
	{"atomicio.write_file_us", "us", "lower"},
	{"atomicio.read_file_us", "us", "lower"},
	// cluster, placement
	{"cluster.evaluate_into_us", "us", "lower"},
	{"cluster.evaluate_allocs", "count", "lower"},
	{"placement.ffd_swap_solve_us", "us", "lower"},
	{"placement.relaxation_solve_us", "us", "lower"},
	// sweep
	{"sweep.train_s_per_cell", "s", "lower"},
	{"sweep.measure_s_per_cell", "s", "lower"},
	{"sweep.cells_failed", "count", "lower"},
	{"sweep.replica_us_per_step", "us", "lower"},
	// the benchmark itself
	{"bench.fixture_s", "s", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.spans", "count", "lower"},
}

func isPerLayer(name string) bool {
	for _, s := range perLayerSpecs {
		if s.name == name {
			return true
		}
	}
	return false
}

// runSeconds is BENCHMARK.json's run_seconds and the -seconds default.
const runSeconds = 22
