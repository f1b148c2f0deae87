// Package control implements the five resource controllers the
// paper's evaluation compares (Figure 9): the untuned Baseline, the
// heuristic of Algorithm 1, the EE-Pstate scheme of Iqbal & John with
// a DES traffic predictor, the tabular Q-learning model, and
// GreenNFV itself (DDPG + Ape-X). All controllers drive the same
// environment through one interface so the comparison is apples to
// apples.
//
// # Paper mapping
//
//   - Baseline: the untuned busy-poll platform of every comparison.
//   - Heuristic: Algorithm 1 (§4.2).
//   - EEPstate: the Iqbal & John P/C-state scheme from related work.
//   - QControl: the tabular Q-learning comparison model (§4.3).
//   - GreenNFV: the paper's controller (§4.3.2), trained with Ape-X
//     DDPG and deployed greedily; Figures 6–11. One controller for
//     every topology: TrainOn/StepOn take any env.Stepper, so the
//     same type trains on a multi-node env.ClusterEnv — knob blocks
//     for every chain and (when the factory leaves placement
//     unpinned) the per-chain placement logit head; FigCluster
//     compares that against the analytic placement.FFDSwap and
//     placement.Relaxation policies at fixed knob training. Prepare
//     and Step, the Controller-interface methods, are the *env.Env
//     case of TrainOn and StepOn. The training run is configured
//     through one field, GreenNFV.Train (an apex.TrainerConfig that
//     NewGreenNFV fills with the defaults); TrainOn adds only the
//     environment factory, the agent template and the seeds.
//
// # Deployment
//
// Deploy is the one controller deploy loop (one Step per interval,
// every measurement returned); Run is its settled mean (Settled) plus
// the last interval, and the experiment figures format either.
//
// # Concurrency and determinism
//
// Controllers are NOT goroutine-safe; the sweep and figure drivers
// give each concurrently running cell its own controller and
// environment. With the default (round-robin) trainer every
// controller is deterministic given its seed — the property the
// byte-diffed figure tables rest on. Train.Parallel and
// Train.RemoteActors run apex's concurrent learner pipeline over
// its in-process or multi-process experience transport, which is
// faster but not deterministic, so the figure harness never enables
// them. With Train.CheckpointPath set the trainer itself writes the
// completion checkpoint in every mode, and interval checkpoints in
// the two concurrent ones.
//
// # What a trained GreenNFV keeps
//
// The model is "trained only once before deployment and … run many
// times", so once TrainOn's run (and its completion checkpoint) is
// done the controller keeps only what StepOn, SaveActor,
// SavePolicyState and Curve read: the learner's agent — networks, Adam
// moments, noise, RNG position, counters — and the training curve.
// The trainer goes with its actors, their views and environments, and
// the agent releases its replay contents, batch scratch and the
// critic's and targets' caches in place
// (ddpg.Agent.ReleaseTrainingMemory). None of that changes a saved or
// deployed bit (TestTrainedGreenNFVKeepsOnlyWhatItServes). A policy
// trained for 2,000 steps retains about 0.4 MB, where the run held
// 2.1 MB more that nothing reads after it, and the figure suite's 14
// models 5.6 MB.
package control
