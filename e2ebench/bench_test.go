package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"github.com/caesar-sketch/caesar"
)

// One seed gives byte-identical inputs and ground truth; another seed
// gives different ones. The service probe's bodies carry exactly the flows
// of the stream they are cut from.
func TestInputsDeterministic(t *testing.T) {
	for _, sizes := range []struct {
		name string
		mice bool
	}{{"backbone", false}, {"mice", true}} {
		gen := func(seed uint64) *replayInputs {
			t.Helper()
			var in *replayInputs
			var err error
			if sizes.mice {
				in, err = genReplay(5000, miceSizes(), 10_000, seed)
			} else {
				in, err = genReplay(2000, nil, 40_000, seed)
			}
			if err != nil {
				t.Fatal(err)
			}
			return in
		}
		a, b, c := gen(11), gen(11), gen(12)
		if !bytes.Equal(a.pcap, b.pcap) || a.packets != b.packets || !reflect.DeepEqual(a.flows, b.flows) {
			t.Errorf("%s: seed 11 gave different inputs on two calls", sizes.name)
		}
		if bytes.Equal(a.pcap, c.pcap) {
			t.Errorf("%s: seeds 11 and 12 gave the same capture", sizes.name)
		}
		if len(a.pcap) != 24+54*a.packets {
			t.Errorf("%s: capture is %d bytes for %d packets", sizes.name, len(a.pcap), a.packets)
		}
		total := 0
		for _, n := range a.flows.sizes {
			if n < 1 {
				t.Errorf("%s: a flow with %d packets in the ground truth", sizes.name, n)
			}
			total += n
		}
		if total != a.packets {
			t.Errorf("%s: ground truth sums to %d packets, capture holds %d", sizes.name, total, a.packets)
		}
	}
	ids := []caesar.FlowID{7, 1 << 40, 3, 7, 9}
	in := bodiesOf(ids, 2)
	if len(in.bodies) != 2 || !reflect.DeepEqual(in.flows, [][]caesar.FlowID{{7, 1 << 40}, {3, 7}}) {
		t.Errorf("bodiesOf cut %v into %d bodies carrying %v", ids, len(in.bodies), in.flows)
	}
	for i, b := range in.bodies {
		var req struct {
			Flows []caesar.FlowID `json:"flows"`
		}
		if err := json.Unmarshal(b, &req); err != nil || !reflect.DeepEqual(req.Flows, in.flows[i]) {
			t.Errorf("body %d %s decodes to %v, %v; want %v", i, b, req.Flows, err, in.flows[i])
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if v, err := percentile(xs, 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with exactly 10 samples beyond", v, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples accepted; it has only 9 samples beyond it")
	}
	if _, err := percentile(xs[:10], 90); err == nil {
		t.Error("p90 of 10 samples accepted")
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// The gate has teeth: a ledger that loses a packet, an estimator that
// answers zeros, and one that doubles every estimate all fail it as
// correctness violations.
func TestGateRejectsWrongOutputs(t *testing.T) {
	var ge *gateError
	if err := ledgerCheck(1000, 990, 5, 4); !errors.As(err, &ge) {
		t.Errorf("ledger 1000 != 990+5+4 passed the gate: %v", err)
	}
	if err := ledgerCheck(1000, 990, 6, 4); err != nil {
		t.Errorf("balanced ledger failed: %v", err)
	}

	// Backbone-shaped truth: giants present.
	sizes := []int{5000, 4000, 3000, 2500, 2000, 1800, 1600, 1400, 1200, 1100, 50, 40, 3, 1}
	exact := make([]float64, len(sizes))
	for i, s := range sizes {
		exact[i] = float64(s)
	}
	top := flowTable{sizes: sizes}.largest(12)
	if _, err := checkOutputs(exact, sizes, top, 10); err != nil {
		t.Fatalf("exact estimates failed: %v", err)
	}
	for name, est := range map[string][]float64{
		"zeros":  make([]float64, len(sizes)),
		"double": scaleAll(exact, 2),
	} {
		if _, err := checkOutputs(est, sizes, top, 10); !errors.As(err, &ge) {
			t.Errorf("%s estimator passed the backbone gate: %v", name, err)
		}
	}

	// Mice-shaped truth: no giants, classes of 1 and 3 packets.
	mice := make([]int, 3000)
	for i := range mice {
		mice[i] = 1 + 2*(i%2)
	}
	mtop := flowTable{sizes: mice}.largest(1000)
	mexact := make([]float64, len(mice))
	for i, s := range mice {
		mexact[i] = float64(s) + 0.5 // a constant bias keeps the class gap
	}
	if _, err := checkOutputs(mexact, mice, mtop, 50); err != nil {
		t.Fatalf("biased-but-ordered mice estimates failed: %v", err)
	}
	if _, err := checkOutputs(make([]float64, len(mice)), mice, mtop, 50); !errors.As(err, &ge) {
		t.Errorf("zero estimator passed the mice gate: %v", err)
	}
}

func scaleAll(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
