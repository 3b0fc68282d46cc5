package braids

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/stats"
	"github.com/caesar-sketch/caesar/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Layer1Counters: 2, K1: 3, Layer2Counters: 8},
		{Layer1Counters: 8, Layer2Counters: 1, K2: 2},
		{Layer1Counters: 8, Layer2Counters: 8, Layer1Bits: 40},
		{Layer1Counters: 8, Layer2Counters: 8, Layer2Bits: 63},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	s, err := New(Config{Layer1Counters: 64, Layer2Counters: 16})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().K1 != 3 || s.Config().K2 != 3 || s.Config().Layer1Bits != 8 {
		t.Fatalf("defaults: %+v", s.Config())
	}
}

func TestExactDecodeAtLowLoad(t *testing.T) {
	// The CB regime: enough layer-1 counters per flow and the decoder
	// reconstructs every size exactly.
	const flows = 200
	cfg := Config{
		Layer1Counters: 3 * flows, // ~3 counters per flow beyond k1 load
		Layer1Bits:     8,
		Layer2Counters: 256, // generously above the layer-2 decode threshold
		Seed:           1,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[hashing.FlowID]int, flows)
	rng := hashing.NewPRNG(2)
	ids := make([]hashing.FlowID, flows)
	for i := range ids {
		ids[i] = hashing.FlowID(hashing.Mix64(uint64(i) + 7))
		truth[ids[i]] = 1 + rng.Intn(100)
	}
	for _, id := range ids {
		for j := 0; j < truth[id]; j++ {
			s.Observe(id)
		}
	}
	res := s.Decode(ids, 50)
	if !res.Converged {
		t.Fatalf("decoder did not converge in %d iterations", res.Iterations)
	}
	for i, id := range ids {
		if res.Estimates[i] != float64(truth[id]) {
			t.Fatalf("flow %d decoded %v, want %d", i, res.Estimates[i], truth[id])
		}
	}
}

func TestLayerOneOverflowBraidsIntoLayerTwo(t *testing.T) {
	// A single huge flow must overflow its 4-bit layer-1 counters and still
	// decode exactly via the braid.
	cfg := Config{
		Layer1Counters: 32,
		Layer1Bits:     4,  // wraps every 16
		Layer2Counters: 64, // sparse enough for the sandwich to close
		Seed:           3,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const x = 1000
	id := hashing.FlowID(42)
	for i := 0; i < x; i++ {
		s.Observe(id)
	}
	res := s.Decode([]hashing.FlowID{id}, 50)
	if res.Estimates[0] != x {
		t.Fatalf("decoded %v, want %d", res.Estimates[0], x)
	}
	if s.Layer2Saturations() != 0 {
		t.Fatalf("unexpected layer-2 saturations: %d", s.Layer2Saturations())
	}
}

func TestDecodeCliffUnderOverload(t *testing.T) {
	// Push the load far beyond the CB threshold: decoding must degrade
	// (this is the Section 2.1 storage cliff, contrast with CAESAR).
	const flows = 2000
	run := func(l1 int) float64 {
		cfg := Config{
			Layer1Counters: l1,
			Layer1Bits:     8,
			Layer2Counters: 256,
			Seed:           4,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := hashing.NewPRNG(5)
		ids := make([]hashing.FlowID, flows)
		truth := make([]int, flows)
		for i := range ids {
			ids[i] = hashing.FlowID(hashing.Mix64(uint64(i) + 99))
			truth[i] = 1 + rng.Intn(50)
			for j := 0; j < truth[i]; j++ {
				s.Observe(ids[i])
			}
		}
		res := s.Decode(ids, 40)
		var pts []stats.EstimatePoint
		for i := range ids {
			pts = append(pts, stats.EstimatePoint{Actual: truth[i], Estimated: res.Estimates[i]})
		}
		return stats.AverageRelativeError(pts)
	}
	generous := run(3 * flows) // ~24 bits/flow: exact regime
	starved := run(flows / 2)  // ~2 bits/flow: beyond the cliff
	if generous > 0.01 {
		t.Errorf("generous CB ARE = %.4f, want ~0", generous)
	}
	if starved < 10*generous+0.1 {
		t.Errorf("starved CB ARE = %.4f: expected a sharp cliff vs %.4f", starved, generous)
	}
}

func TestDecodeOnHeavyTailedTrace(t *testing.T) {
	tr, err := trace.Generate(trace.GenConfig{
		Flows: 1500, Seed: 6, Sizes: trace.BoundedSizes(1500)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Layer1Counters: 3 * tr.NumFlows(),
		// 10-bit first layer: only elephant-touched counters overflow, so
		// the layer-2 graph stays sparse enough to decode.
		Layer1Bits:     10,
		Layer2Counters: tr.NumFlows(),
		Seed:           7,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets {
		s.Observe(p.Flow)
	}
	ids := trace.SortedFlowIDs(tr.Truth)
	res := s.Decode(ids, 60)
	exact := 0
	for i, id := range ids {
		if res.Estimates[i] == float64(tr.Truth[id]) {
			exact++
		}
	}
	if frac := float64(exact) / float64(len(ids)); frac < 0.95 {
		t.Fatalf("only %.1f%% of flows decoded exactly in the generous regime", 100*frac)
	}
}

func TestMemoryAccounting(t *testing.T) {
	s, err := New(Config{Layer1Counters: 8192, Layer1Bits: 8, Layer2Counters: 1024, Layer2Bits: 56, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := (8192.0*8 + 1024*56) / 8192
	if math.Abs(s.MemoryKB()-want) > 1e-9 {
		t.Fatalf("MemoryKB = %v, want %v", s.MemoryKB(), want)
	}
}

func TestLayer2Saturation(t *testing.T) {
	cfg := Config{
		Layer1Counters: 8,
		Layer1Bits:     1, // wraps every 2 packets
		Layer2Counters: 4,
		Layer2Bits:     2, // layer-2 cap 3: saturates fast
		Seed:           8,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Observe(1)
	}
	if s.Layer2Saturations() == 0 {
		t.Fatal("expected layer-2 saturations with 2-bit overflow counters")
	}
}

func TestDecodeEmptySketch(t *testing.T) {
	s, err := New(Config{Layer1Counters: 64, Layer2Counters: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Decode([]hashing.FlowID{5}, 10)
	// An unseen flow on an empty sketch decodes to the lower bound 1...
	// except all its counters are zero, so the upper bound is 0 — clipping
	// keeps estimates at the lower bound. Either 0 or 1 is acceptable; it
	// must not be negative or huge.
	if res.Estimates[0] < 0 || res.Estimates[0] > 1 {
		t.Fatalf("empty-sketch estimate = %v", res.Estimates[0])
	}
}

func BenchmarkObserve(b *testing.B) {
	s, _ := New(Config{Layer1Counters: 1 << 16, Layer2Counters: 1 << 12, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(hashing.FlowID(i % 10000))
	}
}

func BenchmarkDecode(b *testing.B) {
	const flows = 2000
	s, _ := New(Config{Layer1Counters: 3 * flows, Layer2Counters: 512, Seed: 1})
	rng := hashing.NewPRNG(1)
	ids := make([]hashing.FlowID, flows)
	for i := range ids {
		ids[i] = hashing.FlowID(hashing.Mix64(uint64(i)))
		for j := 0; j < 1+rng.Intn(50); j++ {
			s.Observe(ids[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Decode(ids, 30)
	}
}

// decodeProperty is the generous-regime decode property (3 counters per
// flow, deep layers): a random small instance must decode at least 80% of
// its separable flows exactly and no flow wildly wrong. A flow whose
// layer-1 counter set equals another flow's is not separable: both flows
// see exactly the same counters, so no decoder can split their total
// between them, and they are left out of the exact count.
func decodeProperty(seed uint64, sizesRaw []uint8) bool {
	if len(sizesRaw) == 0 || len(sizesRaw) > 60 {
		return true
	}
	flows := len(sizesRaw)
	cfg := Config{
		Layer1Counters: 3*flows + 9,
		// 10-bit first layer: with sizes <= 200 almost nothing
		// overflows, so stage-1 decode is near-trivial and the property
		// isolates the flow-layer decoder.
		Layer1Bits:     10,
		Layer2Counters: 3*flows + 16,
		Seed:           seed,
	}
	s, err := New(cfg)
	if err != nil {
		return false
	}
	ids := make([]hashing.FlowID, flows)
	truth := make([]int, flows)
	sets := make([]string, flows)
	shared := make(map[string]int)
	for i := range ids {
		ids[i] = hashing.FlowID(hashing.Mix64(seed + uint64(i)))
		truth[i] = int(sizesRaw[i]%200) + 1
		for j := 0; j < truth[i]; j++ {
			s.Observe(ids[i])
		}
		set := s.sel1.Select(ids[i], nil)
		slices.Sort(set)
		sets[i] = fmt.Sprint(set)
		shared[sets[i]]++
	}
	res := s.Decode(ids, 60)
	// Exact reconstruction holds with high probability, not always: a
	// random instance can contain a small cycle of mutually ambiguous
	// flows. Require near-total exactness and bounded residual error.
	exact, separable := 0, 0
	for i := range ids {
		if math.Abs(res.Estimates[i]-float64(truth[i])) > float64(truth[i])+1200 {
			return false // wildly wrong is a decoder bug, not ambiguity
		}
		if shared[sets[i]] > 1 {
			continue
		}
		separable++
		if res.Estimates[i] == float64(truth[i]) {
			exact++
		}
	}
	return exact >= separable*8/10
}

func TestDecodePropertyQuick(t *testing.T) {
	// Inputs on which two flows share one layer-1 counter set; counting
	// those flows toward exactness made the property fail on them.
	for _, in := range []struct {
		seed  uint64
		sizes []uint8
	}{
		{0x38a6ba0094f98b09, []uint8{0xae, 0xc2, 0xac}},
		{0xfe1064f4dc1be057, []uint8{0xc4, 0xe7, 0x72, 0xb2, 0x48}},
		{0x120d6088ac9aa7c9, []uint8{0xae, 0x71, 0xad}},
	} {
		if !decodeProperty(in.seed, in.sizes) {
			t.Errorf("seed %#x sizes %v: property failed", in.seed, in.sizes)
		}
	}
	if err := quick.Check(decodeProperty, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
