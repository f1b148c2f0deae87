package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around that call. Spans of one operation (an env step,
// a tick, a grid cell) share a trace id; Parent is the ID of the span
// that was open when this one began (0: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It belongs to the
// one driver goroutine; a nil recorder records nothing, which is how
// the same replica code runs untraced.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	trace int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextTrace starts a new operation: spans begun from now on carry a
// fresh trace id.
func (r *recorder) nextTrace() {
	if r != nil {
		r.trace++
	}
}

// begin opens a span under the innermost open one and returns its ID.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	n := len(r.open)
	if n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order (open: %v)", id, r.open))
	}
	r.open = r.open[:n-1]
	r.spans[id-1].End = now
}

// layerTime is one span name's aggregate.
type layerTime struct {
	name   string
	count  int
	totalS float64 // summed durations
	selfS  float64 // summed durations minus the children's
}

// selfTimes aggregates spans by name; a span's self time is its
// duration minus the part of it its direct children cover.
func selfTimes(spans []span) []layerTime {
	childNs := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		lt.count++
		lt.totalS += float64(s.End-s.Start) / 1e9
		lt.selfS += float64(s.End-s.Start-childNs[s.ID]) / 1e9
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// layer looks one aggregate up by name (zero value when absent).
func layer(lts []layerTime, name string) layerTime {
	for _, lt := range lts {
		if lt.name == name {
			return lt
		}
	}
	return layerTime{name: name}
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans is writeSpans' inverse.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
