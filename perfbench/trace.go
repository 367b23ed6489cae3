package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer's public function.
type span struct {
	Name string `json:"name"`
	// Phase is the benchmark phase the span ran in: setup, window (the
	// timed work) or replay (farm-sweeps' traced layer replay).
	Phase string `json:"phase"`
	// ID names the experiment, chunk or request the span belongs to.
	ID      string `json:"id,omitempty"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at top level
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. The benchmark calls
// the layers from one goroutine, so spans nest as a stack. A nil
// tracer records nothing: the untraced run pays one nil check per
// call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the token end closes it with.
func (t *tracer) begin(phase, id, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Phase: phase, ID: id, Parent: parent, StartNS: time.Since(t.t0).Nanoseconds()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// durations lists the durations, in ms, of the spans of that name in
// that phase.
func (t *tracer) durations(phase, name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Phase == phase && s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// total sums the durations of the spans of that name in that phase.
func (t *tracer) total(phase, name string) time.Duration {
	var sum float64
	for _, d := range t.durations(phase, name) {
		sum += d
	}
	return time.Duration(sum * float64(time.Millisecond))
}

// layerTime is one row of the per-name summary: how often a layer was
// called, its total time, and its self time (total minus the time its
// child spans cover).
type layerTime struct {
	Phase  string  `json:"phase"`
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) summary() []layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	rows := map[[2]string]*layerTime{}
	for i, s := range t.spans {
		k := [2]string{s.Phase, s.Name}
		r := rows[k]
		if r == nil {
			r = &layerTime{Phase: s.Phase, Name: s.Name}
			rows[k] = r
		}
		r.Calls++
		r.TotalS += s.dur().Seconds()
		r.SelfS += (s.dur() - child[i]).Seconds()
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSummary prints the per-layer table to w.
func (t *tracer) writeSummary(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-40s %8s %10s %10s\n", "phase", "span", "calls", "total_s", "self_s")
	for _, r := range t.summary() {
		fmt.Fprintf(w, "%-8s %-40s %8d %10.4f %10.4f\n", r.Phase, r.Name, r.Calls, r.TotalS, r.SelfS)
	}
}

// writeFile writes every span and the summary as one JSON document.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans   []span      `json:"spans"`
		Summary []layerTime `json:"summary"`
	}{t.spans, t.summary()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
