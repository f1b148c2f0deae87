package stats

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestPromHistogramBuckets pins cumulative bucket semantics: le is
// inclusive, overflow lands in +Inf only, sum and count are exact.
func TestPromHistogramBuckets(t *testing.T) {
	h := NewPromHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	if _, sum, n := h.snapshot(); n != 6 || sum != 1066.5 {
		t.Fatalf("count, sum = %d, %g, want 6, 1066.5", n, sum)
	}
	var buf bytes.Buffer
	if err := writeHistogram(&buf, "lat", "help", h); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lat help
# TYPE lat histogram
lat_bucket{le="1"} 2
lat_bucket{le="10"} 4
lat_bucket{le="100"} 5
lat_bucket{le="+Inf"} 6
lat_sum 1066.5
lat_count 6
`
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestPromHistogramPanics(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":    {},
		"unsorted": {10, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			NewPromHistogram(bounds)
		}()
	}
}

// TestRegistryExposition pins the full scrape: gauges, counter-set
// expansion with _total suffix, owner-kept counters, histograms, registration order, and
// that every line parses as valid exposition text.
func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := NewCounters()
	c.Add("configs_pushed", 7)
	c.Add("odd key!", 1) // sanitized to odd_key_
	reg.RegisterCounterSet("svc", "Service events.", c)
	reg.RegisterGauge("svc_nodes", "Registered nodes.", func() float64 { return 3 })
	reg.RegisterCounter("svc_rpc_calls_total", "Calls.", func() float64 { return 12 })
	h := NewPromHistogram([]float64{0.001, 0.1})
	h.Observe(0.05)
	reg.RegisterHistogram("svc_latency_seconds", "Latency.", h)
	reg.RegisterInfo("svc_kernel_info", "Selected kernels.", "set", "avx2+fma")

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"svc_configs_pushed_total 7",
		"svc_odd_key__total 1",
		"# TYPE svc_nodes gauge",
		"svc_nodes 3",
		"# TYPE svc_rpc_calls_total counter",
		"svc_rpc_calls_total 12",
		`svc_latency_seconds_bucket{le="0.001"} 0`,
		`svc_latency_seconds_bucket{le="+Inf"} 1`,
		"svc_latency_seconds_count 1",
		"# TYPE svc_kernel_info gauge",
		`svc_kernel_info{set="avx2+fma"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be `name{labels}? value`.
	line := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{(le|set)="[^"]+"\})? -?[0-9].*$`)
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(l, "#") {
			continue
		}
		if !line.MatchString(l) {
			t.Errorf("invalid exposition line %q", l)
		}
	}
}

// TestRegistryHTTP pins the http.Handler integration and the v0.0.4
// content type.
func TestRegistryHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterGauge("up", "1 while serving.", func() float64 { return 1 })
	srv := httptest.NewServer(reg)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("content type %q, want %q", ct, PromContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "up 1") {
		t.Errorf("scrape body missing gauge:\n%s", buf.String())
	}
}

// TestRegistryServe scrapes the listener the daemons start: the
// registry at /metrics on the listener Serve returns, until it closes.
func TestRegistryServe(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterGauge("up", "1 while serving.", func() float64 { return 1 })
	ln, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "up 1") {
		t.Errorf("scrape: status %d, body:\n%s", resp.StatusCode, buf.String())
	}
	if _, err := reg.Serve(ln.Addr().String()); err == nil {
		t.Error("second listener on a bound address succeeded")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterGauge("g", "x", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.RegisterGauge("g", "x", func() float64 { return 0 })
}

// TestPromConcurrentScrape races observers, counter bumps and scrapes
// (the serving pattern: RPC handlers write, the metrics endpoint
// reads).
func TestPromConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	c := NewCounters()
	h := NewPromHistogram(DefLatencyBuckets)
	reg.RegisterCounterSet("svc", "events", c)
	reg.RegisterHistogram("svc_lat", "lat", h)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc("events")
				h.Observe(float64(i) * 1e-4)
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var buf bytes.Buffer
				if err := reg.WriteText(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, _, got := h.snapshot(); got != 800 {
		t.Errorf("histogram count %d, want 800", got)
	}
	if got := c.Get("events"); got != 800 {
		t.Errorf("counter %d, want 800", got)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"ok_name":   "ok_name",
		"has space": "has_space",
		"1leading":  "_1leading",
		"":          "_",
		"a:b":       "a:b",
	} {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
