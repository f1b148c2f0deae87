// Command greennfvd is the GreenNFV serving-plane controller daemon:
// it loads a trained policy checkpoint, leases a fleet of
// cmd/greennfv-agent node agents over TCP (internal/rpcutil), and
// continuously turns their observations into SLA-guardrailed,
// rate-limited knob configs. Agents and controller upgrade together:
// the transport's preamble makes a mixed pair fail at the agent's first
// call (it then runs its local ladder) rather than misread each other.
//
// The node spec file (greennfv -write-spec, or System.WriteNodeSpec)
// pins the environment contract — chain, workload, SLA — that the
// policy was trained for; controller and agents must load the same
// spec. SIGHUP hot-reloads the -policy checkpoint (a corrupt or
// mismatched file is rejected loudly and the old policy keeps
// serving; a new policy whose state write failed serves and is logged
// as not persisted); SIGINT/SIGTERM shuts down gracefully, persisting state to
// -state so a restarted daemon resumes with its fleet re-registering
// transparently.
//
// Usage:
//
//	greennfv -sla efficiency -steps 4000 -save-policy policy.ckpt
//	greennfv -write-spec node.json
//	greennfvd -spec node.json -policy policy.ckpt -state /var/lib/greennfvd.state
package main

import (
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"greennfv/internal/nn"
	"greennfv/internal/serve"
	"greennfv/internal/stats"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("greennfvd: ")

	specPath := flag.String("spec", "", "node spec JSON file (required; see greennfv -write-spec)")
	policyPath := flag.String("policy", "", "policy checkpoint to serve (greennfv -save-policy format)")
	statePath := flag.String("state", "", "crash-safe controller state file (optional)")
	listen := flag.String("listen", "127.0.0.1:7070", "RPC listen address")
	metricsAddr := flag.String("metrics", "127.0.0.1:9464", "Prometheus /metrics listen address (empty disables)")
	lease := flag.Duration("lease", 10*time.Second, "node lease window; silent nodes re-register")
	flag.Parse()

	if *specPath == "" {
		log.Fatal("-spec is required")
	}
	spec, err := serve.ReadSpec(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := serve.NewController(serve.Config{
		Spec:        spec,
		PolicyPath:  *policyPath,
		StatePath:   *statePath,
		LeaseWindow: *lease,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := ctrl.Start(*listen); err != nil {
		log.Fatal(err)
	}
	log.Printf("serving policy v%d on %s (lease window %v, nn kernels %s)", ctrl.PolicyVersion(), ctrl.Addr(), *lease, nn.KernelSet())

	if *metricsAddr != "" {
		reg := stats.NewRegistry()
		ctrl.RegisterMetrics(reg)
		ln, err := reg.Serve(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		log.Printf("metrics on http://%s/metrics", ln.Addr())
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sweep := time.NewTicker(*lease / 2)
	defer sweep.Stop()

	for {
		select {
		case <-hup:
			if *policyPath == "" {
				log.Print("reload requested but no -policy path configured")
				continue
			}
			switch err := ctrl.ReloadPolicy(*policyPath); {
			case errors.Is(err, serve.ErrReloadNotPersisted):
				log.Printf("policy reloaded: now serving v%d; state not persisted: %v", ctrl.PolicyVersion(), err)
			case err != nil:
				log.Printf("reload rejected, still serving v%d: %v", ctrl.PolicyVersion(), err)
			default:
				log.Printf("policy reloaded: now serving v%d", ctrl.PolicyVersion())
			}
		case now := <-sweep.C:
			if n := ctrl.ExpireLeases(now); n > 0 {
				log.Printf("expired %d stale node leases", n)
			}
		case sig := <-stop:
			log.Printf("%v: shutting down", sig)
			if err := ctrl.Close(); err != nil {
				log.Printf("shutdown: %v", err)
			}
			for _, name := range ctrl.Counters().Names() {
				log.Printf("counter %s = %d", name, ctrl.Counters().Get(name))
			}
			return
		}
	}
}
