package ddpg

// The float32 fast path of the DDPG update is learnFused (ddpg.go) at
// T = float32: the fused LearnBatch structure through the float32
// instantiation of nn's batch engine (8-lane AVX2 kernels, half the
// memory traffic of f64). This file is the switch; the precision
// contract it puts in force is in doc.go ("Float32 fast path").

// SetFloat32 switches the agent's learn path between double and
// single precision. Enabling snapshots the f64 weights into f32
// mirrors (allocating them on first use); disabling flushes the
// trained mirrors back into the f64 weights so ActInto, ActorBytes
// and the scalar TDError see the trained policy.
// Redundant calls in either direction are no-ops — in particular,
// enabling twice must NOT re-snapshot, because the f64 weights go
// stale while the f32 path trains and re-reading them would silently
// revert the mirrors. Toggling off and on mid-training loses nothing
// but the sub-f32 precision of the weights.
func (a *Agent) SetFloat32(enable bool) {
	if enable {
		if a.f32 {
			return
		}
		a.Actor.EnableF32()
		a.Critic.EnableF32()
		a.actorTarget.EnableF32()
		a.criticTarget.EnableF32()
		a.f32 = true
		return
	}
	if !a.f32 {
		return
	}
	a.Actor.FlushF32()
	a.Critic.FlushF32()
	a.actorTarget.FlushF32()
	a.criticTarget.FlushF32()
	a.f32 = false
}

// Float32 reports whether the f32 learn path is active.
func (a *Agent) Float32() bool { return a.f32 }
