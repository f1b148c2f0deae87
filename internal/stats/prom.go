package stats

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// Prometheus text exposition (version 0.0.4), dependency-free: the
// serving daemons publish their operational ledgers at /metrics
// without pulling a client library into the build. Three metric
// shapes cover the control plane's needs — counter sets (every
// Counters key becomes its own `<prefix>_<key>_total` family), gauges
// (a float read at scrape time; an info gauge is the constant 1 with
// one label), and histograms (PromHistogram, cumulative `le` buckets +
// sum + count).
//
// A Registry is goroutine-safe: registration, scrapes and the metric
// sources they read may all run concurrently with the serving path.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefLatencyBuckets spans 50µs–2.5s, the useful range for report
// round-trip and decision latencies.
var DefLatencyBuckets = []float64{
	5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// PromHistogram is a goroutine-safe cumulative-bucket histogram in
// the Prometheus shape: fixed upper bounds chosen at construction, an
// implicit +Inf bucket, exact sum and count. Unlike Histogram (linear
// buckets, single-owner) it is built for concurrent Observe from RPC
// handlers.
type PromHistogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // per-bucket; counts[len(bounds)] is +Inf overflow
	sum    float64
	n      uint64
}

// NewPromHistogram builds a histogram with the given ascending upper
// bounds (+Inf is implicit). It panics on unsorted or empty bounds —
// construction constants.
func NewPromHistogram(bounds []float64) *PromHistogram {
	if len(bounds) == 0 {
		panic("stats: PromHistogram needs at least one bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("stats: PromHistogram bounds must ascend")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &PromHistogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one observation.
func (h *PromHistogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le is inclusive)
	h.mu.Lock()
	h.counts[idx]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// snapshot copies the histogram state for exposition.
func (h *PromHistogram) snapshot() (counts []uint64, sum float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts = make([]uint64, len(h.counts))
	copy(counts, h.counts)
	return counts, h.sum, h.n
}

// metricFamily is one registered exposition entry.
type metricFamily struct {
	name string // full metric name; for counter sets, the prefix
	help string
	// Exactly one of the sources is set.
	gauge   func() float64
	counter func() float64
	hist    *PromHistogram
	set     *Counters
	// labels is the rendered label set of a gauge's one sample
	// (`{set="avx2+fma"}`), empty for a bare name.
	labels string
}

// Registry collects metric sources and writes them in Prometheus text
// exposition format. It implements http.Handler, so mounting
// `mux.Handle("/metrics", reg)` is the whole integration.
type Registry struct {
	mu       sync.Mutex
	families []metricFamily
	names    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register appends a family, panicking on duplicate names
// (registration is wiring code; a silent overwrite would hide a bug).
func (r *Registry) register(f metricFamily) {
	f.name = SanitizeMetricName(f.name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic("stats: duplicate metric registration: " + f.name)
	}
	r.names[f.name] = true
	r.families = append(r.families, f)
}

// RegisterGauge registers a gauge whose value is read at scrape time.
func (r *Registry) RegisterGauge(name, help string, fn func() float64) {
	if fn == nil {
		panic("stats: nil gauge func")
	}
	r.register(metricFamily{name: name, help: help, gauge: fn})
}

// RegisterInfo registers an info gauge: the constant 1 carrying one
// label, `name{label="value"} 1` — how a process publishes a fact about
// itself that is a string (a build, a selected code path). name should
// end in _info.
func (r *Registry) RegisterInfo(name, help, label, value string) {
	r.register(metricFamily{name: name, help: help,
		labels: fmt.Sprintf("{%s=%q}", SanitizeMetricName(label), value),
		gauge:  func() float64 { return 1 }})
}

// RegisterCounter registers a counter whose owner keeps the count: fn
// is read at scrape time and must never decrease while its source
// lives. name should end in _total.
func (r *Registry) RegisterCounter(name, help string, fn func() float64) {
	if fn == nil {
		panic("stats: nil counter func")
	}
	r.register(metricFamily{name: name, help: help, counter: fn})
}

// RegisterHistogram registers a PromHistogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *PromHistogram) {
	if h == nil {
		panic("stats: nil histogram")
	}
	r.register(metricFamily{name: name, help: help, hist: h})
}

// RegisterCounterSet registers a Counters ledger: at scrape time each
// key k is exposed as its own counter family `<prefix>_<k>_total`.
// Keys that appear after registration (Counters registers names on
// first Add) show up on the next scrape.
func (r *Registry) RegisterCounterSet(prefix, help string, c *Counters) {
	if c == nil {
		panic("stats: nil counter set")
	}
	r.register(metricFamily{name: prefix, help: help, set: c})
}

// WriteText writes every registered family in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]metricFamily, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		var err error
		switch {
		case f.gauge != nil:
			err = writeSimple(w, f.name, f.labels, f.help, "gauge", formatFloat(f.gauge()))
		case f.counter != nil:
			err = writeSimple(w, f.name, "", f.help, "counter", formatFloat(f.counter()))
		case f.hist != nil:
			err = writeHistogram(w, f.name, f.help, f.hist)
		case f.set != nil:
			err = writeCounterSet(w, f.name, f.help, f.set)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP implements http.Handler, serving one scrape.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	r.WriteText(w)
}

// Serve listens on addr and serves the registry at /metrics in the
// background until the returned listener is closed.
func (r *Registry) Serve(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r)
	go http.Serve(ln, mux)
	return ln, nil
}

func writeSimple(w io.Writer, name, labels, help, typ, value string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s%s %s\n", name, help, name, typ, name, labels, value)
	return err
}

func writeCounterSet(w io.Writer, prefix, help string, c *Counters) error {
	for _, key := range c.Names() {
		name := prefix + "_" + SanitizeMetricName(key) + "_total"
		if err := writeSimple(w, name, "", help+" ("+key+")", "counter",
			strconv.FormatInt(c.Get(key), 10)); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name, help string, h *PromHistogram) error {
	counts, sum, n := h.snapshot()
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, n, name, formatFloat(sum), name, n)
	return err
}

// formatFloat renders a float in the exposition format's shortest
// round-trippable form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SanitizeMetricName maps a string onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing every other rune with '_' and
// prefixing names that would start with a digit.
func SanitizeMetricName(s string) string {
	if s == "" {
		return "_"
	}
	out := []byte(s)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9': // valid except as the first rune
		default:
			out[i] = '_'
		}
	}
	if c := out[0]; c >= '0' && c <= '9' {
		return "_" + string(out)
	}
	return string(out)
}
