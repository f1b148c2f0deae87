package serve

// Controller-level unit tests for the report fast path's edges: the
// persistence-failure ledger, the per-source counter conservation law
// (the fallback double-count fix), and the Prometheus exposition
// contract.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"greennfv/internal/atomicio"
	"greennfv/internal/nn"
	"greennfv/internal/perfmodel"
	"greennfv/internal/rl/ddpg"
	"greennfv/internal/sla"
	"greennfv/internal/stats"
)

// latencyObservations reads the decision-latency histogram's count
// the way a scrape does.
func latencyObservations(t *testing.T, c *Controller) uint64 {
	t.Helper()
	reg := stats.NewRegistry()
	reg.RegisterHistogram("latency", "", c.reportLatency)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(text.String(), "latency_count ")
	if !ok {
		t.Fatalf("no latency_count in %q", text.String())
	}
	n, err := strconv.ParseUint(strings.TrimSpace(after), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// flakyStore wraps a real store and fails its writes while tripped.
type flakyStore struct {
	inner   stateStore
	fail    bool
	saves   int
	appends int
}

func (f *flakyStore) Save(st *ControllerState) error {
	if f.fail {
		return errors.New("injected: disk full")
	}
	f.saves++
	return f.inner.Save(st)
}

func (f *flakyStore) Append(nodeID string, ks []perfmodel.NFKnobs) error {
	if f.fail {
		return errors.New("injected: disk full")
	}
	err := f.inner.Append(nodeID, ks)
	if err == nil {
		f.appends++
	}
	return err
}

func (f *flakyStore) Load() (*ControllerState, error) { return f.inner.Load() }

// TestPersistFailureKeepsServing pins the recordLastGood persistence-
// failure path: a failing store bumps the state_persist_errors ledger
// entry, serving continues untouched, and once the store heals the
// next last-good change lands through a full snapshot — a failed
// append is never followed by another append to the same journal.
func TestPersistFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	statePath := filepath.Join(dir, "controller.state")
	ctrl, err := NewController(Config{
		Spec:       spec,
		PolicyPath: writePolicy(t, dir, spec, 41),
		StatePath:  statePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyStore{inner: ctrl.store, fail: true}
	ctrl.store = flaky

	n := newSimNode(t, spec, 0)
	if err := n.register(ctrl); err != nil {
		t.Fatal(err)
	}
	reply, err := n.step(ctrl)
	if err != nil {
		t.Fatalf("report with failing store: %v", err)
	}
	if reply.Source != SourcePolicy {
		t.Fatalf("source %q, want policy (serving must continue)", reply.Source)
	}
	if got := ctrl.Counters().Get(CounterStatePersistErrors); got != 1 {
		t.Fatalf("state_persist_errors = %d, want 1", got)
	}
	if ctrl.LastGood(n.id) == nil {
		t.Fatal("failed persist dropped the in-memory last-known-good")
	}

	// change records a new last-known-good for the node and returns it.
	change := func() []perfmodel.NFKnobs {
		ks := ctrl.LastGood(n.id)
		ks[0].Batch++
		ctrl.recordLastGood(ctrl.nodes[n.id], n.id, ks)
		return ks
	}
	// onDisk asserts what a restart would resume for the node.
	onDisk := func(want []perfmodel.NFKnobs) {
		t.Helper()
		st, err := flaky.Load()
		if err != nil {
			t.Fatal(err)
		}
		if st == nil || len(st.LastGood[n.id]) == 0 {
			t.Fatal("persisted state is missing the node")
		}
		if got := st.LastGood[n.id][0].Batch; got != want[0].Batch {
			t.Errorf("persisted batch %d, want %d", got, want[0].Batch)
		}
	}

	// Heal the store; the next last-good CHANGE retries with a
	// snapshot (the controller was fresh: there was none to append to).
	flaky.fail = false
	onDisk(change())
	if flaky.saves != 1 || flaky.appends != 0 {
		t.Fatalf("after heal: %d snapshots / %d appends, want 1 / 0", flaky.saves, flaky.appends)
	}
	// With a snapshot to extend, a change is one journal record.
	onDisk(change())
	if flaky.saves != 1 || flaky.appends != 1 {
		t.Fatalf("steady change: %d snapshots / %d appends, want 1 / 1", flaky.saves, flaky.appends)
	}

	// A failed append: ledger +1, serving continues, and the change
	// after the store heals is a snapshot again, not an append.
	flaky.fail = true
	change()
	if got := ctrl.Counters().Get(CounterStatePersistErrors); got != 2 {
		t.Fatalf("state_persist_errors = %d after a failed append, want 2", got)
	}
	if _, err := n.step(ctrl); err != nil {
		t.Fatalf("report after a failed append: %v", err)
	}
	// (That report may itself have moved the config and failed to
	// persist it.)
	failed := ctrl.Counters().Get(CounterStatePersistErrors)
	flaky.fail = false
	onDisk(change())
	if flaky.saves != 2 || flaky.appends != 1 {
		t.Fatalf("after failed append: %d snapshots / %d appends, want 2 / 1", flaky.saves, flaky.appends)
	}
	if got := ctrl.Counters().Get(CounterStatePersistErrors); got != failed {
		t.Errorf("state_persist_errors = %d after heal, want still %d", got, failed)
	}
	c := ctrl.Counters()
	if got, want := c.Get(CounterStateSnapshots), int64(flaky.saves); got != want {
		t.Errorf("state_snapshots = %d, want %d", got, want)
	}
	if got, want := c.Get(CounterStateJournalAppends), int64(flaky.appends); got != want {
		t.Errorf("state_journal_appends = %d, want %d", got, want)
	}
}

// TestReportCounterConservation drives a noisy policy against a tight
// SLA so every ladder rung fires, then pins the conservation law:
// configs_pushed = policy + last-good sources, and fallbacks = holds.
// Before the double-count fix a last-good recovery bumped
// fallback_activations too, so fallback exceeded holds — exactly what
// this test rejects.
func TestReportCounterConservation(t *testing.T) {
	budget, err := sla.NewMaxThroughput(1950)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec := testSpec(budget)
	// Jittered load makes the guardrail verdict traffic-dependent, so
	// the same config passes some intervals and violates others —
	// that's what walks the run through every rung. The budget sits
	// inside the jitter band of this policy's proposals (found
	// empirically for this seed).
	spec.LoadJitter = 0.15
	ctrl, err := NewController(Config{
		Spec:       spec,
		PolicyPath: writePolicy(t, dir, spec, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := newSimNode(t, spec, 0)
	if err := n.register(ctrl); err != nil {
		t.Fatal(err)
	}
	var nPolicy, nLastGood, nHold int
	for i := 0; i < 120; i++ {
		reply, err := n.step(ctrl)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		switch reply.Source {
		case SourcePolicy:
			nPolicy++
		case SourceLastGood:
			nLastGood++
		case SourceHold:
			nHold++
		default:
			t.Fatalf("step %d: unknown source %q", i, reply.Source)
		}
	}
	if nLastGood == 0 || nHold == 0 {
		t.Fatalf("scenario vacuous: policy=%d lastGood=%d hold=%d (need every rung)",
			nPolicy, nLastGood, nHold)
	}
	c := ctrl.Counters()
	if got := c.Get(CounterSourcePolicy); got != int64(nPolicy) {
		t.Errorf("source_policy = %d, observed %d", got, nPolicy)
	}
	if got := c.Get(CounterSourceLastGood); got != int64(nLastGood) {
		t.Errorf("source_last_good = %d, observed %d", got, nLastGood)
	}
	if got := c.Get(CounterSourceHold); got != int64(nHold) {
		t.Errorf("source_hold = %d, observed %d", got, nHold)
	}
	if got := c.Get(CounterConfigsPushed); got != int64(nPolicy+nLastGood) {
		t.Errorf("configs_pushed = %d, want %d", got, nPolicy+nLastGood)
	}
	// The fix under test: a last-good recovery is NOT a fallback.
	if got := c.Get(CounterFallbackActivations); got != int64(nHold) {
		t.Errorf("fallback_activations = %d, want %d (holds only)", got, nHold)
	}
	assertCountersConserve(t, ctrl)
	// Decision latency is observed once per decision (any source).
	if got := latencyObservations(t, ctrl); got != 120 {
		t.Errorf("latency observations = %d, want 120", got)
	}
}

// TestRejectedReportsAreCounted walks every error return of the report
// path — no lease, expired lease, stale epoch, wrong dimension,
// non-finite observation, missing and non-finite traffic — and pins
// that each one bumps reports_rejected and is timed like a served
// report, so a misbehaving agent shows on /metrics. Nothing rejected
// reaches the policy: no config is pushed and last-known-good stays
// put.
func TestRejectedReportsAreCounted(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	clk := newFakeClock(time.Unix(1700000000, 0))
	ctrl, err := NewController(Config{
		Spec:        spec,
		PolicyPath:  writePolicy(t, dir, spec, 44),
		LeaseWindow: 10 * time.Second,
		Now:         clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := newSimNode(t, spec, 0)
	if err := n.register(ctrl); err != nil {
		t.Fatal(err)
	}
	if _, err := n.step(ctrl); err != nil {
		t.Fatal(err)
	}
	n.env.ObserveInto(n.obs)
	good := ReportArgs{NodeID: n.id, Epoch: n.epoch, Obs: n.obs, Traffic: n.env.LastTraffic()}
	with := func(mutate func(*ReportArgs)) ReportArgs {
		a := good
		a.Obs = append([]float64(nil), good.Obs...)
		mutate(&a)
		return a
	}
	cases := []struct {
		name string
		args ReportArgs
	}{
		{"unknown node", with(func(a *ReportArgs) { a.NodeID = "nobody" })},
		{"stale epoch", with(func(a *ReportArgs) { a.Epoch-- })},
		{"short observation", with(func(a *ReportArgs) { a.Obs = a.Obs[1:] })},
		{"NaN observation", with(func(a *ReportArgs) { a.Obs[2] = math.NaN() })},
		{"infinite observation", with(func(a *ReportArgs) { a.Obs[0] = math.Inf(-1) })},
		{"no traffic", with(func(a *ReportArgs) { a.Traffic.OfferedPPS = 0 })},
		{"NaN traffic", with(func(a *ReportArgs) { a.Traffic.OfferedPPS = math.NaN() })},
		{"infinite traffic", with(func(a *ReportArgs) { a.Traffic.OfferedPPS = math.Inf(1) })},
		{"NaN burstiness", with(func(a *ReportArgs) { a.Traffic.Burstiness = math.NaN() })},
	}
	pushed := ctrl.Counters().Get(CounterConfigsPushed)
	lastGood := ctrl.LastGood(n.id)
	for i, tc := range cases {
		var reply ReportReply
		if err := ctrl.report(&tc.args, &reply); err == nil {
			t.Errorf("%s: report accepted", tc.name)
		}
		if reply.Config != nil || reply.Hold {
			t.Errorf("%s: rejected report still carries a decision: %+v", tc.name, reply)
		}
		if got := ctrl.Counters().Get(CounterReportsRejected); got != int64(i+1) {
			t.Errorf("%s: reports_rejected = %d, want %d", tc.name, got, i+1)
		}
	}
	// An expired lease is the remaining rejection.
	clk.Advance(11 * time.Second)
	if ctrl.ExpireLeases(clk.Now()) != 1 {
		t.Fatal("lease did not expire")
	}
	var reply ReportReply
	if err := ctrl.report(&good, &reply); !IsUnregisteredNode(err) {
		t.Errorf("expired lease: %v, want unregistered", err)
	}
	rejected := int64(len(cases) + 1)
	if got := ctrl.Counters().Get(CounterReportsRejected); got != rejected {
		t.Errorf("reports_rejected = %d, want %d", got, rejected)
	}
	// One served report (the priming step) plus every rejection.
	if got := latencyObservations(t, ctrl); got != uint64(1+rejected) {
		t.Errorf("latency observations = %d, want %d", got, 1+rejected)
	}
	if got := ctrl.Counters().Get(CounterConfigsPushed); got != pushed {
		t.Errorf("configs_pushed moved %d -> %d on rejected reports", pushed, got)
	}
	if got := ctrl.LastGood(n.id); !reflect.DeepEqual(got, lastGood) {
		t.Errorf("last-known-good moved on rejected reports: %+v -> %+v", lastGood, got)
	}
}

// TestControllerMetricsExposition pins the /metrics contract the
// daemons serve: every stats.Counters key appears as a
// greennfv_serve_<key>_total counter, the gauges report live values,
// and the report-latency histogram exposes its buckets.
func TestControllerMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	ctrl, err := NewController(Config{
		Spec:       spec,
		PolicyPath: writePolicy(t, dir, spec, 43),
		StatePath:  filepath.Join(dir, "controller.state"),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := newSimNode(t, spec, 0)
	if err := n.register(ctrl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := n.step(ctrl); err != nil {
			t.Fatal(err)
		}
	}
	// One more config change, so the state has seen its first
	// snapshot and at least one journal record.
	changed := ctrl.LastGood(n.id)
	changed[0].Batch++
	ctrl.recordLastGood(ctrl.nodes[n.id], n.id, changed)

	reg := stats.NewRegistry()
	ctrl.RegisterMetrics(reg)
	srv := httptest.NewServer(reg)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != stats.PromContentType {
		t.Errorf("content type %q, want %q", ct, stats.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	for _, key := range ctrl.Counters().Names() {
		want := "greennfv_serve_" + stats.SanitizeMetricName(key) + "_total"
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing counter %q for key %q", want, key)
		}
	}
	for _, want := range []string{
		"greennfv_serve_registered_nodes 1",
		"greennfv_serve_policy_version 1",
		`greennfv_nn_kernel_info{set="` + nn.KernelSet() + `"} 1`,
		`greennfv_serve_report_latency_seconds_bucket{le="+Inf"} 3`,
		"greennfv_serve_report_latency_seconds_count 3",
		"greennfv_serve_configs_pushed_total 3",
		"greennfv_serve_state_snapshots_total 1",
		"greennfv_serve_state_journal_appends_total ",
		"greennfv_serve_state_journal_bytes ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "greennfv_serve_state_journal_bytes 0\n") {
		t.Errorf("journal gauge reads 0 with a journal on disk:\n%s", out)
	}
}

// TestBootOnUnknownLayouts: a controller reads only the formats it
// knows, and refuses the rest without writing. A serving checkpoint
// whose training state is under another magic — which
// ddpg.LoadAgentBytes refuses — still boots and serves, because boot
// reads only the policy section. A state file or journal under another
// magic is refused at boot with an error naming the file, the magic
// found and the one wanted, and both files stay as they were.
func TestBootOnUnknownLayouts(t *testing.T) {
	spec := testSpec(sla.NewEnergyEfficiency())
	policyPath := writeTrainedPolicy(t, t.TempDir(), spec, 7, []int{4}, 5)

	t.Run("checkpoint", func(t *testing.T) {
		file, err := os.ReadFile(policyPath)
		if err != nil {
			t.Fatal(err)
		}
		_, form, err := ddpg.LoadPolicy(file)
		if err != nil {
			t.Fatal(err)
		}
		// The training state's magic opens where the policy-only form
		// ends. Bump its version digit and reseal the section: the
		// little-endian CRC32 at bytes 16–19 covers everything from byte
		// 20 (internal/rl/ddpg doc, "Checkpoint").
		foreign := bytes.Clone(file)
		foreign[len(form)+7]++
		binary.LittleEndian.PutUint32(foreign[16:], crc32.ChecksumIEEE(foreign[20:]))
		if _, err := ddpg.LoadAgentBytes(foreign); err == nil {
			t.Fatal("ddpg.LoadAgentBytes read a training state under another magic")
		}
		path := filepath.Join(t.TempDir(), "policy.ckpt")
		if err := os.WriteFile(path, foreign, 0o644); err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewController(Config{Spec: spec, PolicyPath: path, StatePath: filepath.Join(t.TempDir(), "controller.state")})
		if err != nil {
			t.Fatalf("a checkpoint with an unreadable training state does not boot: %v", err)
		}
		defer ctrl.Close()
		n := newSimNode(t, spec, 0)
		if err := n.register(ctrl); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if reply, err := n.step(ctrl); err != nil || reply.Source != SourcePolicy {
				t.Fatalf("interval %d: %v, source %q, want the policy's config", i, err, reply.Source)
			}
		}
	})

	t.Run("state", func(t *testing.T) {
		readFile := func(path string) []byte {
			t.Helper()
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		for _, name := range []string{"controller.state", "controller.state.journal"} {
			path, _, _ := journaledStore(t, t.TempDir())
			target := filepath.Join(filepath.Dir(path), name)
			raw := readFile(target)
			want := string(raw[:atomicio.MagicLen])
			raw[atomicio.MagicLen-1]++ // the format's version digit
			found := string(raw[:atomicio.MagicLen])
			if err := os.WriteFile(target, raw, 0o600); err != nil {
				t.Fatal(err)
			}
			snapshot, journal := readFile(path), readFile(journalPath(path))
			_, err := NewController(Config{Spec: spec, PolicyPath: policyPath, StatePath: path})
			if err == nil {
				t.Fatalf("%s under magic %q booted", name, found)
			}
			for _, say := range []string{target, strconv.Quote(found), strconv.Quote(want)} {
				if !strings.Contains(err.Error(), say) {
					t.Errorf("%s: refusal %q does not say %s", name, err, say)
				}
			}
			if !bytes.Equal(readFile(path), snapshot) || !bytes.Equal(readFile(journalPath(path)), journal) {
				t.Errorf("%s: a refused boot changed the state files", name)
			}
		}
	})
}

// TestResumedLastGoodIsUnregistered pins what a resumed
// last-known-good is before its node registers: a record with no
// lease, so it counts in no registered-node gauge, expires nothing and
// is still served by LastGood and re-persisted unchanged by the next
// snapshot. Once the node registers, the resumed config is its
// last-known-good rung: with a NaN policy (TestGuardrailProperty's way
// of refusing every policy proposal) its first report is served from
// it.
func TestResumedLastGoodIsUnregistered(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(sla.NewEnergyEfficiency())
	cfg := Config{
		Spec:       spec,
		PolicyPath: writePolicy(t, dir, spec, 45),
		StatePath:  filepath.Join(dir, "controller.state"),
	}
	first, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*simNode{newSimNode(t, spec, 0), newSimNode(t, spec, 1)}
	want := map[string][]perfmodel.NFKnobs{}
	for _, n := range nodes {
		if err := n.register(first); err != nil {
			t.Fatal(err)
		}
		if _, err := n.step(first); err != nil {
			t.Fatal(err)
		}
		if want[n.id] = first.LastGood(n.id); want[n.id] == nil {
			t.Fatalf("%s has no last-known-good to resume", n.id)
		}
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if got := ctrl.RegisteredNodes(); got != 0 {
		t.Errorf("%d nodes registered after resume, want 0", got)
	}
	if got := ctrl.ExpireLeases(time.Now().Add(time.Hour)); got != 0 {
		t.Errorf("ExpireLeases expired %d resumed records, want 0", got)
	}
	for id, ks := range want {
		if got := ctrl.LastGood(id); !reflect.DeepEqual(got, ks) {
			t.Errorf("LastGood(%s) = %+v, want the resumed %+v", id, got, ks)
		}
	}
	// ReloadPolicy writes a snapshot: the resumed configs are in it.
	if err := ctrl.ReloadPolicy(writeNaNPolicy(t, t.TempDir(), spec, 45)); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Counters().Get(CounterStateSnapshots); got != 1 {
		t.Fatalf("state_snapshots = %d, want 1", got)
	}
	st, err := ctrl.store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.LastGood, want) {
		t.Errorf("snapshot holds %+v, want the resumed %+v", st.LastGood, want)
	}

	n := newSimNode(t, spec, 0)
	if err := n.register(ctrl); err != nil {
		t.Fatal(err)
	}
	reply, err := n.step(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Source != SourceLastGood || !reflect.DeepEqual(reply.Config, want[n.id]) {
		t.Errorf("first report under a NaN policy: source %q config %+v, want %q %+v",
			reply.Source, reply.Config, SourceLastGood, want[n.id])
	}
	if got := ctrl.RegisteredNodes(); got != 1 {
		t.Errorf("%d nodes registered, want 1", got)
	}
}
