package main

import (
	"testing"
	"time"
)

// A hand-built tree: root [0,100) with children a [10,40) and b [30,60)
// (overlapping), a's child c [15,25), and a second root [200,250) with one
// child [210,220). Self times subtract the union of the children, and do
// not depend on where the tracer's clock starts.
func TestSelfTimesHandBuiltTree(t *testing.T) {
	for _, shift := range []time.Duration{0, -time.Hour} {
		checkHandBuiltTree(t, shift)
	}
}

func checkHandBuiltTree(t *testing.T, shift time.Duration) {
	t.Helper()
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 1, Start: 15, End: 25},
		{Name: "root", Parent: -1, Start: 200, End: 250},
		{Name: "a", Parent: 4, Start: 210, End: 220},
	}
	for i := range spans {
		spans[i].Start += shift
		spans[i].End += shift
	}
	want := []time.Duration{50, 20, 30, 10, 40, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	a := attribute(spans, "root")
	if a.Roots != 2 {
		t.Fatalf("roots = %d, want 2", a.Roots)
	}
	if a.PerRoot["a"][0] != 20 || a.PerRoot["b"][0] != 30 || a.PerRoot["c"][0] != 10 || a.PerRoot["a"][1] != 10 {
		t.Errorf("per-root layer sums = %v", a.PerRoot)
	}
	if a.Residual[0] != 50 || a.Residual[1] != 40 {
		t.Errorf("residuals = %v, want [50 40]", a.Residual)
	}
}

// Sequential children, as every benchmark path records them, add up to
// the root exactly.
func TestAttributionAddsUp(t *testing.T) {
	t0 := time.Unix(0, 0)
	tr := tracer{t0: t0}
	at := func(ns int) time.Time { return t0.Add(time.Duration(ns)) }
	for i := 0; i < 3; i++ {
		base := i * 1000
		r := tr.add("serve.observe", -1, int64(i), at(base), at(base+700))
		tr.add("gen.late", r, int64(i), at(base), at(base+100+i))
		tr.add("http.observe", r, int64(i), at(base+100+i), at(base+650))
	}
	a := attribute(tr.spans, "serve.observe")
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	if a.Residual[2] != 50 || a.PerRoot["gen.late"][2] != 102 {
		t.Errorf("root 2: residual %v gen.late %v", a.Residual[2], a.PerRoot["gen.late"][2])
	}
}
