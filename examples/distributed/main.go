// distributed runs the Ape-X architecture across real process
// boundaries the way the paper's six-node deployment does: the
// trainer serves the central learner over TCP (internal/rpcutil) and spawns three
// actor OS processes (cmd/apexactor), each rebuilding its own
// environment from the shipped JSON spec and climbing the exploration
// ladder by rank. Experience flows in over RPC; parameter broadcasts
// flow back; the round drains gracefully when the update budget is
// spent.
//
// Run from anywhere in the module (the actors are spawned via
// `go run greennfv/cmd/apexactor`, so the toolchain must be on PATH):
//
//	go run ./examples/distributed
//
// For separate machines, build cmd/apexactor, set ListenAddr to a
// routable address, leave SpawnRemote empty, and start the actors by
// hand — see the README's "Distributed training" section.
package main

import (
	"fmt"
	"log"

	"greennfv/internal/rl/apex"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
)

func main() {
	log.SetFlags(0)

	spec := &apex.ActorSpec{
		// Environment: the paper's standard chain and five-flow
		// workload under the unconstrained energy-efficiency SLA.
		SLA:        sla.NewEnergyEfficiency(),
		LoadJitter: 0.03,
		EnvSeed:    100,
	}

	cfg := apex.DefaultTrainerConfig(1200)
	cfg.RemoteActors = 3
	cfg.SpawnRemote = []string{"go", "run", "greennfv/cmd/apexactor"}
	cfg.RemoteSpec = spec
	cfg.AgentConfig = ddpg.DefaultConfig(0, 0) // dims filled from the spec's env
	cfg.AgentConfig.Seed = 7

	trainer, err := apex.NewTrainer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training: 1 learner + %d actor processes, %d total env steps\n",
		cfg.RemoteActors, cfg.TotalSteps)
	if err := trainer.Run(); err != nil {
		log.Fatal(err)
	}

	pushes, transitions := trainer.Learner().Stats()
	fmt.Printf("\nlearner: %d updates, %d pushes, %d transitions in replay\n",
		trainer.Learner().Agent().LearnSteps(), pushes, transitions)
	stats := trainer.RemoteActorStats()
	for rank := 0; rank < cfg.RemoteActors; rank++ {
		st := stats[rank]
		fmt.Printf("  actor %d: %d pushes, %d transitions, last param version %d\n",
			rank, st.Pushes, st.Transitions, st.LastVersion)
	}

	// Evaluate the learned policy greedily on a fresh environment.
	e, err := spec.BuildEnv(999)
	if err != nil {
		log.Fatal(err)
	}
	res, err := trainer.GreedyEval(e, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy policy: %.2f Gbps at %.0f J per window\n",
		res.ThroughputGbps, res.EnergyJoules)
}
