// Command greennfv-agent is the GreenNFV serving-plane node agent: it
// runs on (or simulates) one chain-hosting node, reports observations
// to the greennfvd controller each control interval, and applies the
// vetted knob configs it gets back — re-checked against the local SLA
// guardrail before touching anything.
//
// The agent degrades gracefully rather than failing: when the
// controller is unreachable or holds, it walks the local ladder
// (last-known-good config while fresh, then the heuristic fallback
// controller, then holding the current config) and re-registers
// transparently once the controller returns. It exits only on SIGINT/
// SIGTERM — or when the controller fences it because a replacement
// agent registered for the same node ID.
//
// Usage:
//
//	greennfv-agent -spec node.json -controller 127.0.0.1:7070 -node node-a
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"greennfv/internal/serve"
	"greennfv/internal/stats"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("greennfv-agent: ")

	specPath := flag.String("spec", "", "node spec JSON file (required; same file greennfvd loads)")
	controller := flag.String("controller", "127.0.0.1:7070", "controller RPC address")
	hostname, _ := os.Hostname()
	nodeID := flag.String("node", hostname, "node identity for lease registration")
	rank := flag.Int("rank", 0, "node rank (seeds this node's traffic process)")
	interval := flag.Duration("interval", time.Second, "control interval")
	stale := flag.Duration("stale", 30*time.Second, "distrust last-known-good configs older than this")
	metricsAddr := flag.String("metrics", "127.0.0.1:9465", "Prometheus /metrics listen address (empty disables)")
	flag.Parse()

	if *specPath == "" {
		log.Fatal("-spec is required")
	}
	spec, err := serve.ReadSpec(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	agent, err := serve.NewNodeAgent(serve.NodeConfig{
		NodeID:         *nodeID,
		ControllerAddr: *controller,
		Spec:           spec,
		Rank:           *rank,
		StaleAfter:     *stale,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer agent.Close()
	log.Printf("node %q reporting to %s every %v", *nodeID, *controller, *interval)

	if *metricsAddr != "" {
		reg := stats.NewRegistry()
		agent.RegisterMetrics(reg)
		ln, err := reg.Serve(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		log.Printf("metrics on http://%s/metrics", ln.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	mode := ""
	for {
		select {
		case <-stop:
			log.Print("shutting down")
			for _, name := range agent.Counters().Names() {
				log.Printf("counter %s = %d", name, agent.Counters().Get(name))
			}
			return
		case now := <-ticker.C:
			err := agent.Step(now)
			if serve.IsStaleNodeEpoch(err) {
				// A replacement agent owns this node; fighting it would
				// flap the hardware.
				log.Fatalf("fenced by controller (superseded lease): %v", err)
			}
			if agent.Mode() != mode {
				mode = agent.Mode()
				res := agent.LastResult()
				log.Printf("config source now %q (%.2f Gbps, %.0f J)", mode, res.ThroughputGbps, res.EnergyJoules)
			}
			if err != nil {
				log.Printf("degraded interval (%s): %v", agent.Mode(), err)
			}
		}
	}
}
