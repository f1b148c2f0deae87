// Command greennfv trains and evaluates GreenNFV SLA policies from
// the command line.
//
// Usage:
//
//	greennfv -sla efficiency -steps 4000 -actors 4
//	greennfv -sla maxthroughput -budget 2000 -steps 4000
//	greennfv -sla minenergy -floor 7.5 -steps 4000
//
// Training can persist the policy for the serving plane, and a saved
// checkpoint is evaluated directly without retraining (serve-only
// mode):
//
//	greennfv -sla efficiency -steps 4000 -save-policy policy.ckpt
//	greennfv -sla efficiency -policy policy.ckpt -compare
//	greennfv -sla efficiency -write-spec node.json   # node spec for greennfvd/greennfv-agent
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"greennfv"
	"greennfv/internal/nn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("greennfv: ")

	slaName := flag.String("sla", "efficiency", "SLA: efficiency | maxthroughput | minenergy")
	budget := flag.Float64("budget", 2000, "energy budget in joules (maxthroughput SLA)")
	floor := flag.Float64("floor", 7.5, "throughput floor in Gbps (minenergy SLA)")
	steps := flag.Int("steps", 4000, "training episodes")
	actors := flag.Int("actors", 4, "Ape-X actor count")
	chain := flag.String("chain", "standard", "chain preset: standard | heavy | light")
	seed := flag.Int64("seed", 17, "random seed")
	compare := flag.Bool("compare", false, "also run the non-learning baselines")
	policyPath := flag.String("policy", "", "serve-only mode: evaluate this policy checkpoint, skip training")
	savePolicy := flag.String("save-policy", "", "write the trained policy checkpoint here (greennfvd format)")
	writeSpec := flag.String("write-spec", "", "write the node spec JSON here for the serving plane, then exit")
	flag.Parse()
	log.Printf("nn kernels: %s", nn.KernelSet())

	cfg := greennfv.DefaultConfig()
	cfg.Seed = *seed
	cfg.Chain = greennfv.ChainPreset(*chain)
	sys, err := greennfv.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var agreement greennfv.SLA
	switch *slaName {
	case "efficiency":
		agreement = greennfv.EfficiencySLA()
	case "maxthroughput":
		agreement, err = greennfv.MaxThroughputSLA(*budget)
	case "minenergy":
		agreement, err = greennfv.MinEnergySLA(*floor)
	default:
		log.Fatalf("unknown SLA %q", *slaName)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *writeSpec != "" {
		f, err := os.Create(*writeSpec)
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.WriteNodeSpec(agreement, f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("node spec for %s written to %s\n", agreement.Describe(), *writeSpec)
		os.Exit(0)
	}

	var policy *greennfv.Policy
	if *policyPath != "" {
		f, err := os.Open(*policyPath)
		if err != nil {
			log.Fatal(err)
		}
		policy, err = sys.LoadPolicyCheckpoint(agreement, f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("serving %s from checkpoint %s (no training)\n", agreement.Describe(), *policyPath)
	} else {
		fmt.Printf("training %s for %d episodes with %d actors...\n",
			agreement.Describe(), *steps, *actors)
		policy, err = sys.Train(agreement, greennfv.TrainOptions{Steps: *steps, Actors: *actors})
		if err != nil {
			log.Fatal(err)
		}
		episodes, tput, energy, eff := policy.TrainingCurve()
		fmt.Println("\ntraining progress (sampled):")
		fmt.Printf("%-10s %-8s %-10s %-8s\n", "episode", "Gbps", "energy J", "Gbps/kJ")
		for i := range episodes {
			fmt.Printf("%-10d %-8.2f %-10.0f %-8.2f\n", episodes[i], tput[i], energy[i], eff[i])
		}
		if *savePolicy != "" {
			f, err := os.Create(*savePolicy)
			if err != nil {
				log.Fatal(err)
			}
			if err := policy.SaveCheckpoint(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("policy checkpoint written to %s\n", *savePolicy)
		}
	}

	m, err := sys.Measure(policy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeployed policy: %.2f Gbps, %.0f J/window (%.0f W), lambda=%.2f Gbps/kJ, SLA satisfied: %v\n",
		m.ThroughputGbps, m.EnergyJ, m.PowerWatts, m.EfficiencyGbpsPerKJ, m.SLASatisfied)

	if *compare {
		fmt.Println("\nbaselines:")
		for _, name := range []greennfv.BaselineName{greennfv.Baseline, greennfv.Heuristic, greennfv.EEPstate} {
			b, err := sys.MeasureBaseline(name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-10s %.2f Gbps, %.0f J, lambda=%.2f\n",
				name, b.ThroughputGbps, b.EnergyJ, b.EfficiencyGbpsPerKJ)
		}
	}
	os.Exit(0)
}
