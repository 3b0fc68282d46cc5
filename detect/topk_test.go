package detect

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	caesar "github.com/caesar-sketch/caesar"
)

// fullSortTopK is the reference ranking: estimate every candidate, sort the
// whole set by (estimate descending, flow ID ascending), truncate to k. The
// bounded-heap TopK must reproduce it exactly.
func fullSortTopK(q Querier, candidates []caesar.FlowID, m caesar.Method, k int) []Flow {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	ests := q.EstimateMany(candidates, m, nil)
	ranked := make([]Flow, len(candidates))
	for i, f := range candidates {
		ranked[i] = Flow{ID: f, Estimate: ests[i]}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Estimate != ranked[j].Estimate {
			return ranked[i].Estimate > ranked[j].Estimate
		}
		return ranked[i].ID < ranked[j].ID
	})
	if k < len(ranked) {
		ranked = ranked[:k]
	}
	return ranked
}

// funcQuerier answers every flow with a fixed function of its ID, so
// duplicate candidates share an estimate exactly as they do on a sketch.
type funcQuerier func(caesar.FlowID) float64

func (q funcQuerier) EstimateMany(flows []caesar.FlowID, _ caesar.Method, dst []float64) []float64 {
	if cap(dst) < len(flows) {
		dst = make([]float64, len(flows))
	}
	dst = dst[:len(flows)]
	for i, f := range flows {
		dst[i] = q(f)
	}
	return dst
}

func checkTopKOracle(t *testing.T, name string, q Querier, cands []caesar.FlowID, k int) {
	t.Helper()
	got := TopK(q, cands, caesar.CSM, k, 1)
	want := fullSortTopK(q, cands, caesar.CSM, k)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: n=%d k=%d: TopK differs from the full sort\n got  %v\n want %v", name, len(cands), k, got, want)
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	queriers := map[string]funcQuerier{
		"distinct": func(f caesar.FlowID) float64 { return float64(f*2654435761%100003) / 7 },
		"equal":    func(caesar.FlowID) float64 { return 42 },
		"few-ties": func(f caesar.FlowID) float64 { return float64(f % 5) },
		"negative": func(f caesar.FlowID) float64 { return float64(int64(f%11)-8) * 1.5 },
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 150, 1000} {
		cands := make([]caesar.FlowID, n)
		for i := range cands {
			cands[i] = caesar.FlowID(rng.Intn(4 * n))
		}
		// Duplicate candidate IDs: the same flow listed more than once.
		dup := append(append([]caesar.FlowID(nil), cands...), cands[:n/2+1]...)
		rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
		for name, q := range queriers {
			for _, c := range [][]caesar.FlowID{cands, dup} {
				for _, k := range []int{1, 100, len(c) - 1, len(c), len(c) + 5} {
					checkTopKOracle(t, name, q, c, k)
				}
			}
		}
	}
}

// TestTopKMatchesFullSortOnSketch runs the oracle comparison against a real
// sketch's estimates, serial and parallel.
func TestTopKMatchesFullSortOnSketch(t *testing.T) {
	sizes := map[caesar.FlowID]int{}
	var cand Candidates
	for i := 0; i < 3000; i++ {
		f := caesar.FlowID(i*7 + 1)
		sizes[f] = 1 + (i*i)%97
		cand.Add(f)
	}
	est := buildSkewed(t, sizes)
	flows := cand.Flows()
	for _, k := range []int{1, 100, len(flows) - 1, len(flows), len(flows) + 5} {
		want := fullSortTopK(est, flows, caesar.MLM, k)
		for _, workers := range []int{1, 3} {
			if got := TopK(est, flows, caesar.MLM, k, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d workers=%d: TopK differs from the full sort", k, workers)
			}
		}
	}
}

func FuzzTopK(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7}, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 9, 9, 9, 9}, uint8(1))
	f.Add([]byte{255, 1, 254, 2, 253, 3}, uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		// Byte pairs are (flow ID, estimate class): a small alphabet makes
		// duplicate IDs and tied, negative estimates common.
		var cands []caesar.FlowID
		class := map[caesar.FlowID]float64{}
		for i := 0; i+1 < len(data); i += 2 {
			id := caesar.FlowID(data[i] % 64)
			if _, ok := class[id]; !ok {
				class[id] = float64(int(data[i+1]%16) - 8)
			}
			cands = append(cands, id)
		}
		q := funcQuerier(func(f caesar.FlowID) float64 { return class[f] })
		checkTopKOracle(t, "fuzz", q, cands, int(k))
	})
}

// TestTopKAllocsBounded pins the bounded selection: beyond the estimate
// buffer (8 bytes per candidate), a TopK call allocates the same whatever
// the candidate count.
func TestTopKAllocsBounded(t *testing.T) {
	const k = 100
	q := funcQuerier(func(f caesar.FlowID) float64 { return float64(f % 1009) })
	extra := func(n int) (allocs float64, bytes uint64) {
		cands := make([]caesar.FlowID, n)
		for i := range cands {
			cands[i] = caesar.FlowID(i)
		}
		TopK(q, cands, caesar.CSM, k, 1)
		allocs = testing.AllocsPerRun(10, func() { TopK(q, cands, caesar.CSM, k, 1) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for i := 0; i < runs; i++ {
			TopK(q, cands, caesar.CSM, k, 1)
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc-before.TotalAlloc)/runs - 8*uint64(n)
	}
	smallAllocs, smallBytes := extra(1 << 10)
	bigAllocs, bigBytes := extra(1 << 16)
	if bigAllocs != smallAllocs {
		t.Fatalf("TopK allocations grow with the candidate count: %v at 1Ki, %v at 64Ki", smallAllocs, bigAllocs)
	}
	// The heap of k flows (16 B each), plus slack for size-class rounding.
	if limit := uint64(k*16 + 1024); smallBytes > limit || bigBytes > limit {
		t.Fatalf("TopK allocates %d B (1Ki) / %d B (64Ki) beyond its estimate buffer, want <= %d", smallBytes, bigBytes, limit)
	}
}
