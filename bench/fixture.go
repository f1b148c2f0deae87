package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"greennfv"
	"greennfv/internal/rl/apex"
	"greennfv/internal/serve"
	"greennfv/internal/sla"
)

// sizes fixes how much work one rep of each workload does. The full
// sizes are the benchmark; the short ones exist so the tests and a
// smoke run finish in seconds. Nothing here is a duration: a rep's
// work is a count.
type sizes struct {
	// train_rr: environment steps per rep, and of the discarded
	// warm-up run.
	trainSteps, trainWarm int
	// serve_*: fleet size; fleet rounds per serve_steady rep; ticks
	// between two reloads and reloads per rep on serve_rollout; fleet
	// rounds of warm-up; reps per run.
	fleet          int
	steadyRounds   int
	rolloutPeriod  int
	rolloutReloads int
	serveWarm      int
	steadyReps     int
	rolloutReps    int
	// sweep_cluster: per-cell training and control budgets.
	sweepTrain, sweepControl int
	// variants is the number of derived seeds train_rr and
	// sweep_cluster cycle through, twice over in a run.
	variants int
	// fixtureSteps trains each of the two fixture policies;
	// fixtureRounds runs the fleet that writes the seed state file.
	fixtureSteps, fixtureRounds int
}

var fullSizes = sizes{
	trainSteps: 2000, trainWarm: 200,
	fleet: 32, steadyRounds: 400, rolloutPeriod: 320, rolloutReloads: 6, serveWarm: 10, steadyReps: 40, rolloutReps: 40,
	sweepTrain: 400, sweepControl: 20,
	variants:     12,
	fixtureSteps: 2000, fixtureRounds: 20,
}

var shortSizes = sizes{
	trainSteps: 160, trainWarm: 80,
	fleet: 4, steadyRounds: 12, rolloutPeriod: 16, rolloutReloads: 2, serveWarm: 2, steadyReps: 2, rolloutReps: 2,
	sweepTrain: 80, sweepControl: 4,
	variants:     2,
	fixtureSteps: 160, fixtureRounds: 4,
}

// The two fixture policies are the deployment artefact of the serving
// workloads — fixed like the model of an inference benchmark — so
// their training seeds are constants. The run's seed generates what
// the fleet is offered: every node's load process (ActorSpec.EnvSeed).
const (
	policySeedA = 17
	policySeedB = 43
)

// deriveSeed maps (run seed, variant) onto a well-spread positive
// seed, so neighbouring run seeds share no variants.
func deriveSeed(seed int64, variant int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(variant+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// fixture is the load generator's own preparation for the serving
// workloads: two policy checkpoints, the node spec, and a controller
// state file to restart from. Its cost is bench.fixture_s, not
// set-up.
type fixture struct {
	dir       string
	sz        sizes
	spec      apex.ActorSpec
	policyA   string
	policyB   string
	seedState string
	seconds   float64
}

func nodeID(i int) string { return fmt.Sprintf("node-%02d", i) }

func trainCheckpoint(path string, seed int64, steps int) error {
	cfg := greennfv.DefaultConfig()
	cfg.Seed = seed
	sys, err := greennfv.NewSystem(cfg)
	if err != nil {
		return err
	}
	policy, err := sys.Train(greennfv.EfficiencySLA(), greennfv.TrainOptions{Steps: steps})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := policy.SaveCheckpoint(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// newFixture trains the two policies and runs a fleet against a fresh
// controller with StatePath set, so that the state file the reps
// restart from holds the policy blob and a last-known-good config for
// every node.
func newFixture(dir string, seed int64, sz sizes) (*fixture, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{
		dir: dir, sz: sz,
		policyA:   filepath.Join(dir, "policy-a.ckpt"),
		policyB:   filepath.Join(dir, "policy-b.ckpt"),
		seedState: filepath.Join(dir, "seed.state"),
		spec:      apex.ActorSpec{LoadJitter: 0.03, SLA: sla.NewEnergyEfficiency(), EnvSeed: seed},
	}
	if err := trainCheckpoint(fx.policyA, policySeedA, sz.fixtureSteps); err != nil {
		return nil, fmt.Errorf("fixture policy A: %w", err)
	}
	if err := trainCheckpoint(fx.policyB, policySeedB, sz.fixtureSteps); err != nil {
		return nil, fmt.Errorf("fixture policy B: %w", err)
	}
	os.Remove(fx.seedState)
	ctrl, err := serve.NewController(serve.Config{Spec: fx.spec, PolicyPath: fx.policyA, StatePath: fx.seedState})
	if err != nil {
		return nil, fmt.Errorf("fixture controller: %w", err)
	}
	if err := ctrl.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	agents := make([]*serve.NodeAgent, sz.fleet)
	for i := range agents {
		if agents[i], err = serve.NewNodeAgent(serve.NodeConfig{
			NodeID: nodeID(i), ControllerAddr: ctrl.Addr(), Spec: fx.spec, Rank: i,
		}); err != nil {
			return nil, err
		}
	}
	now := time.Unix(0, 0)
	for r := 0; r < sz.fixtureRounds; r++ {
		for _, a := range agents {
			now = now.Add(time.Second)
			if err := a.Step(now); err != nil {
				return nil, fmt.Errorf("fixture fleet: %w", err)
			}
		}
	}
	for _, a := range agents {
		a.Close()
	}
	if err := ctrl.Close(); err != nil {
		return nil, fmt.Errorf("fixture controller close: %w", err)
	}
	fx.seconds = time.Since(start).Seconds()
	return fx, nil
}

// stateFS names the filesystem type under dir (tmpfs, ext4, ...): the
// state-file rewrites of serve_rollout are only as steady as it is.
func stateFS(dir string) string {
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range bytes.Split(data, []byte("\n")) {
		// mountinfo: id parent maj:min root mountpoint opts ... - fstype source superopts
		fields := bytes.Fields(line)
		sep := -1
		for i, f := range fields {
			if string(f) == "-" {
				sep = i
				break
			}
		}
		if len(fields) < 5 || sep < 0 || sep+1 >= len(fields) {
			continue
		}
		mp := string(fields[4])
		if mp != "/" && abs != mp && !bytes.HasPrefix([]byte(abs), []byte(mp+"/")) {
			continue
		}
		if len(mp) > best {
			best, fs = len(mp), string(fields[sep+1])
		}
	}
	return fs
}
