// Command apexactor is one Ape-X actor process of the multi-process training
// mode: it rebuilds the training environment and a local policy-network
// copy from a JSON ActorSpec, connects to the central learner over
// TCP (internal/rpcutil), and runs the act/push/pull loop until its
// step budget is spent or the learner drains the round. Actors and
// learner must be the same build: the transport's preamble makes a
// mixed pair fail at the first call rather than misread each other.
//
// It is normally spawned by the trainer (apex.TrainerConfig with
// RemoteActors and SpawnRemote set), which writes the spec to stdin:
//
//	apexactor -learner 127.0.0.1:43017 -rank 1 -steps 2000 -spec -
//
// For genuinely separate machines, point -learner at the trainer's
// ListenAddr and -spec at a spec file; -steps 0 runs until the learner
// signals drain:
//
//	apexactor -learner learner-host:7400 -rank 3 -steps 0 -spec actor.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"greennfv/internal/nn"
	"greennfv/internal/rl/apex"
)

func main() {
	learnerAddr := flag.String("learner", "", "learner RPC address (host:port, required)")
	specPath := flag.String("spec", "-", "actor spec JSON file (\"-\" = stdin)")
	rank := flag.Int("rank", 0, "actor rank: exploration-ladder position and learner-side ID")
	steps := flag.Int("steps", 0, "environment-step budget (0 = spec's, or run until drained)")
	quiet := flag.Bool("q", false, "suppress progress logging")
	verifyPrio := flag.Bool("verifyprio", false,
		"cross-check batched TD-error priorities against the scalar path (bit-for-bit); fail on any difference")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix(fmt.Sprintf("apexactor[%d]: ", *rank))
	if *learnerAddr == "" {
		log.Fatal("-learner is required")
	}

	in := os.Stdin
	if *specPath != "-" {
		f, err := os.Open(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	spec, err := apex.DecodeActorSpec(in)
	if err != nil {
		log.Fatal(err)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	logf("nn kernels: %s", nn.KernelSet())
	opt := apex.RemoteActorOptions{
		Addr: *learnerAddr, Rank: *rank, Steps: *steps, Logf: logf,
		VerifyPriorities: *verifyPrio,
	}
	if err := apex.RunRemoteActor(spec, opt); err != nil {
		log.Fatal(err)
	}
}
