package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one batch or request share
// req; parent indexes the span that made the call (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records a finished span and returns its index (-1 when not tracing).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// begin opens a span whose end is set later by finish; -1 when not tracing.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			ID int `json:"id"`
			span
		}{i, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children are clipped to the parent and their
// overlaps merged, so concurrent children are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		var covered, curS, curE time.Duration
		merging := false
		for _, c := range ch {
			cs, ce := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			switch {
			case ce <= cs:
			case !merging:
				curS, curE, merging = cs, ce, true
			case cs > curE:
				covered += curE - curS
				curS, curE = cs, ce
			case ce > curE:
				curE = ce
			}
		}
		if merging {
			covered += curE - curS
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// attribution splits every root span named root into the self times of
// its descendants, summed per layer name, plus the root's own self time
// (the residual). For each root, the layer sums plus the residual equal
// the root's duration exactly.
type attribution struct {
	Path     string
	Roots    int
	Layers   []string                   // in first-seen order
	PerRoot  map[string][]time.Duration // layer → one sum per root
	Residual []time.Duration
	EndToEnd []time.Duration
}

func attribute(spans []span, root string) attribution {
	self := selfTimes(spans)
	a := attribution{Path: root, PerRoot: map[string][]time.Duration{}}
	rootOf := make([]int, len(spans)) // index into a.EndToEnd, or -1
	for i, s := range spans {
		rootOf[i] = -1
		if s.Parent >= 0 {
			rootOf[i] = rootOf[s.Parent]
		}
		if s.Name == root && rootOf[i] < 0 {
			rootOf[i] = a.Roots
			a.Roots++
			a.EndToEnd = append(a.EndToEnd, s.End-s.Start)
			a.Residual = append(a.Residual, self[i])
		}
	}
	for i, s := range spans {
		r := rootOf[i]
		if r < 0 || s.Name == root && (s.Parent < 0 || rootOf[s.Parent] < 0) {
			continue
		}
		sums, ok := a.PerRoot[s.Name]
		if !ok {
			a.Layers = append(a.Layers, s.Name)
			sums = make([]time.Duration, a.Roots)
		}
		for len(sums) < a.Roots {
			sums = append(sums, 0)
		}
		sums[r] += self[i]
		a.PerRoot[s.Name] = sums
	}
	for _, l := range a.Layers {
		for len(a.PerRoot[l]) < a.Roots {
			a.PerRoot[l] = append(a.PerRoot[l], 0)
		}
	}
	return a
}

// check verifies that layers plus residual add up to every root's
// end-to-end time.
func (a attribution) check() error {
	for r := 0; r < a.Roots; r++ {
		sum := a.Residual[r]
		for _, l := range a.Layers {
			sum += a.PerRoot[l][r]
		}
		if sum != a.EndToEnd[r] {
			return fmt.Errorf("attribution %s root %d: layers+residual %v != end-to-end %v", a.Path, r, sum, a.EndToEnd[r])
		}
	}
	return nil
}

// table renders the attribution: per layer the median, quartiles and share
// of the end-to-end median, per root of the path.
func (a attribution) table(unit string, per float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "path %s: %d roots, values in %s\n", a.Path, a.Roots, unit)
	fmt.Fprintf(&b, "  %-28s %12s %12s %12s %7s\n", "layer", "median", "q1", "q3", "share")
	e2e := scaled(a.EndToEnd, per)
	e2eMed := median(e2e)
	row := func(name string, xs []float64) {
		q1, q3 := quartiles(xs)
		m := median(xs)
		fmt.Fprintf(&b, "  %-28s %12.4f %12.4f %12.4f %6.1f%%\n", name, m, q1, q3, 100*m/e2eMed)
	}
	for _, l := range a.Layers {
		row(l, scaled(a.PerRoot[l], per))
	}
	row("(residual)", scaled(a.Residual, per))
	row("= end-to-end", e2e)
	return b.String()
}

// scaled converts durations to float values: nanoseconds divided by per.
func scaled(ds []time.Duration, per float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / per
	}
	return out
}
