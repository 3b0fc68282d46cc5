// Package detect turns CAESAR estimates into measurement verdicts: top-K
// heavy hitters, threshold alerts for scanners and superspreaders, and
// epoch-over-epoch change detection. These are the three applications the
// paper's introduction motivates (caching/scheduling on elephant flows,
// intrusion detection on scanning speed, anomaly detection on traffic
// shifts), promoted from example programs into a library the live
// measurement service drives off every sealed epoch.
//
// A CAESAR sketch cannot enumerate the flows it has seen — randomized
// counter sharing stores no keys — so every detector takes an explicit
// candidate set; Candidates maintains one on the ingest path for a few
// bytes per flow. Detectors query through the bulk engine (EstimateMany /
// QueryAll), so scanning a large candidate set costs one pass per epoch,
// not one hash round-trip per flow, and their output is deterministic:
// results are fully ordered, with ties broken by flow ID.
//
// Every query surface in the parent package satisfies the interfaces here:
// *caesar.Estimator, *caesar.ShardedEstimator, the sliding *caesar.Window,
// the live *caesar.ShardedWindow, and — the intended steady-state driver —
// each sealed caesar.EpochView.
package detect

import (
	"cmp"
	"slices"

	caesar "github.com/caesar-sketch/caesar"
)

// Querier answers bulk point estimates: flows[i]'s estimate lands at
// dst[i]. It is the parent package's EstimateMany contract.
type Querier interface {
	EstimateMany(flows []caesar.FlowID, m caesar.Method, dst []float64) []float64
}

// ParallelQuerier additionally fans the bulk pass out across workers with
// bit-identical output; detectors use it when present and fall back to the
// serial pass otherwise.
type ParallelQuerier interface {
	Querier
	QueryAll(flows []caesar.FlowID, m caesar.Method, workers int, dst []float64) []float64
}

// IntervalQuerier answers point estimates with confidence intervals — the
// surface threshold detectors need to trade false positives against
// detection latency.
type IntervalQuerier interface {
	EstimateWithInterval(flow caesar.FlowID, alpha float64) (float64, caesar.Interval)
}

// estimateAll runs the candidate scan through QueryAll when the surface
// supports it and workers asks for parallelism.
func estimateAll(q Querier, flows []caesar.FlowID, m caesar.Method, workers int, dst []float64) []float64 {
	if pq, ok := q.(ParallelQuerier); ok && workers != 1 {
		return pq.QueryAll(flows, m, workers, dst)
	}
	return q.EstimateMany(flows, m, dst)
}

// Flow is one ranked detector result.
type Flow struct {
	ID       caesar.FlowID
	Estimate float64
}

// TopK returns the k candidates with the largest estimates, descending,
// ties broken by ascending flow ID so the ranking is deterministic. k
// larger than the candidate set returns everything ranked. One bulk pass
// over the candidates; workers parallelizes it when q supports QueryAll
// (workers <= 0 means GOMAXPROCS, 1 forces the serial path).
//
// Selection keeps a size-k heap whose root is the lowest-ranked survivor,
// so each candidate costs one comparison against the root and only the k
// survivors are sorted, rather than all n candidates. The output equals a
// full sort truncated to k, ties included, because the rank order is total
// on (estimate, ID).
func TopK(q Querier, candidates []caesar.FlowID, m caesar.Method, k, workers int) []Flow {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	ests := estimateAll(q, candidates, m, workers, nil)
	k = min(k, len(candidates))
	h := make([]Flow, k)
	for i, f := range candidates[:k] {
		h[i] = Flow{ID: f, Estimate: ests[i]}
	}
	if k < len(candidates) {
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		for i, f := range candidates[k:] {
			if c := (Flow{ID: f, Estimate: ests[k+i]}); cmpFlow(c, h[0]) < 0 {
				h[0] = c
				siftDown(h, 0)
			}
		}
	}
	slices.SortFunc(h, cmpFlow)
	return h
}

// siftDown restores the heap property below h[i] for a heap whose root is
// its lowest-ranked element (the largest under cmpFlow).
func siftDown(h []Flow, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && cmpFlow(h[l], h[worst]) > 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && cmpFlow(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// cmpRank is the detectors' ranking order: descending estimate, ties by
// ascending flow ID. It is negative when a ranks before b.
func cmpRank(aEst float64, aID caesar.FlowID, bEst float64, bID caesar.FlowID) int {
	if aEst != bEst {
		if aEst > bEst {
			return -1
		}
		return 1
	}
	return cmp.Compare(aID, bID)
}

func cmpFlow(a, b Flow) int { return cmpRank(a.Estimate, a.ID, b.Estimate, b.ID) }

// Alert is one candidate whose estimate cleared a threshold.
type Alert struct {
	ID       caesar.FlowID
	Estimate float64 // point estimate
	Lo       float64 // lower confidence bound that cleared the threshold
}

// OverThreshold flags every candidate whose reliability-alpha confidence
// interval sits entirely above threshold — flagging on the lower bound
// rather than the point estimate keeps counter-sharing noise from minting
// false positives, the scan-detection discipline of the paper's intrusion
// use case. Results are ordered by descending estimate, ties by ascending
// flow ID. Candidates are scanned in the given order, one interval query
// each; interval queries have no bulk path because the variance term is
// per-flow.
func OverThreshold(q IntervalQuerier, candidates []caesar.FlowID, alpha, threshold float64) []Alert {
	var alerts []Alert
	for _, f := range candidates {
		est, iv := q.EstimateWithInterval(f, alpha)
		if iv.Lo > threshold {
			alerts = append(alerts, Alert{ID: f, Estimate: est, Lo: iv.Lo})
		}
	}
	slices.SortFunc(alerts, func(a, b Alert) int { return cmpRank(a.Estimate, a.ID, b.Estimate, b.ID) })
	return alerts
}

// Change is one candidate whose estimate moved between two measurement
// surfaces (typically two consecutive sealed epochs).
type Change struct {
	ID     caesar.FlowID
	Before float64
	After  float64
	Delta  float64 // After - Before
}

// Changes compares every candidate's estimate across two surfaces and
// returns those whose absolute change is at least minDelta, ordered by
// descending |Delta|, ties by ascending flow ID. Driving it with two
// consecutive sealed epochs of a window gives per-epoch change detection:
// a flow that bursts (or vanishes) between epochs surfaces immediately,
// and because every epoch hashes with an independent seed, the two
// estimates carry independent sharing noise rather than correlated bias.
// Two bulk passes total; workers as in TopK.
func Changes(before, after Querier, candidates []caesar.FlowID, m caesar.Method, minDelta float64, workers int) []Change {
	if len(candidates) == 0 {
		return nil
	}
	prev := estimateAll(before, candidates, m, workers, nil)
	cur := estimateAll(after, candidates, m, workers, nil)
	var out []Change
	for i, f := range candidates {
		d := cur[i] - prev[i]
		if d >= minDelta || -d >= minDelta {
			out = append(out, Change{ID: f, Before: prev[i], After: cur[i], Delta: d})
		}
	}
	slices.SortFunc(out, func(a, b Change) int {
		da, db := a.Delta, b.Delta
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		return cmpRank(da, a.ID, db, b.ID)
	})
	return out
}

// Candidates maintains the deduplicated flow set the detectors scan — the
// key memory the sketch itself deliberately does not keep. Add it on the
// ingest path (or from a sampled tap); Flows returns a sorted, stable
// candidate list. Not safe for concurrent use; give each producer its own
// and Merge them, mirroring the per-producer Ingester discipline.
type Candidates struct {
	seen  map[caesar.FlowID]struct{}
	flows []caesar.FlowID // sorted cache, nil when dirty
}

// Add records one flow in the candidate set.
func (c *Candidates) Add(f caesar.FlowID) {
	if c.seen == nil {
		c.seen = make(map[caesar.FlowID]struct{})
	}
	if _, ok := c.seen[f]; !ok {
		c.seen[f] = struct{}{}
		c.flows = nil
	}
}

// AddBatch records a batch of flows.
func (c *Candidates) AddBatch(flows []caesar.FlowID) {
	for _, f := range flows {
		c.Add(f)
	}
}

// Merge folds another candidate set into this one.
func (c *Candidates) Merge(other *Candidates) {
	for f := range other.seen {
		c.Add(f)
	}
}

// Len returns the number of distinct flows recorded.
func (c *Candidates) Len() int { return len(c.seen) }

// Flows returns the candidate set sorted ascending by flow ID. The slice
// is cached until the next Add; callers must not modify it.
func (c *Candidates) Flows() []caesar.FlowID {
	if c.flows == nil {
		c.flows = make([]caesar.FlowID, 0, len(c.seen))
		for f := range c.seen {
			c.flows = append(c.flows, f)
		}
		slices.Sort(c.flows)
	}
	return c.flows
}
