package caesar

import (
	"github.com/caesar-sketch/caesar/internal/bulk"
	"github.com/caesar-sketch/caesar/internal/core"
	"github.com/caesar-sketch/caesar/internal/hashing"
)

// This file is the public face of the bulk query engine (internal/core's
// EstimateMany/QueryAll): whole-trace estimation as a first-class operation
// for the plain Estimator, the ShardedEstimator, and the sliding Window.
//
// Shared contract, everywhere below: the result has len(flows) with
// flows[i]'s estimate at index i; dst is reused as backing storage when
// cap(dst) >= len(flows) (contents overwritten), otherwise a new slice is
// allocated; and output is bit-identical to the corresponding scalar
// Estimate loop, for every method and worker count.

func coreMethod(m Method) core.Method {
	if m == MLM {
		return core.MLMMethod
	}
	return core.CSMMethod
}

// EstimateMany computes the estimate of every flow in flows by method m —
// bit-identical to calling Estimate in a loop, but with counter indices
// generated in blocks, gathers fused with the estimate arithmetic, and the
// noise and method constants hoisted out of the per-flow loop. With a
// reused dst the steady state allocates nothing per flow. It reuses the
// estimator's scratch and is not safe for concurrent use on one estimator;
// QueryAll handles parallelism.
func (est *Estimator) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	return est.e.EstimateMany(flows, coreMethod(m), dst)
}

// QueryAll is the parallel whole-trace driver: contiguous flow chunks fan
// out across workers goroutines (workers <= 0 means GOMAXPROCS), each
// estimating its chunk in bulk and writing results at fixed offsets — so
// the output is bit-identical to the scalar loop (and to EstimateMany)
// regardless of worker count.
func (est *Estimator) QueryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	return est.e.QueryAll(flows, coreMethod(m), workers, dst)
}

// EstimateMany computes every flow's estimate with one bulk pass per shard
// instead of one shard lookup and scalar query per flow: flows are grouped
// by owning shard (counting sort, so the grouping itself is deterministic
// and allocation-free in steady state), each shard's estimator runs its
// bulk engine over its group, and results scatter back to the flows'
// original positions. Flows owned by an unrecoverable quarantined shard
// estimate to 0, exactly like Estimate. The grouping runs over fixed
// chunks of flows, so its scratch is bounded whatever the query size.
func (e *ShardedEstimator) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	return e.queryAll(flows, m, 1, dst)
}

// QueryAll is EstimateMany with the per-shard bulk passes distributed
// across workers goroutines (workers <= 0 means GOMAXPROCS). Each shard is
// processed by exactly one worker — shard groups write disjoint result
// positions — so the output is bit-identical regardless of worker count.
// A one-shard estimator fans contiguous flow ranges out instead.
func (e *ShardedEstimator) QueryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	return e.queryAll(flows, m, workers, dst)
}

func (e *ShardedEstimator) queryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	out := resizeFloats(dst, len(flows))
	e.query.ests = e.query.ests[:0]
	e.query.addEpoch(e)
	e.query.run(e.owner.router, flows, m, workers, out)
	return out
}

// queryChunk is the number of flows grouped by shard per pass of a
// shardQuery. The grouping scratch is sized by it, not by the query, so
// neither a whole-trace query nor the number of sealed epochs it spans
// grows the scratch beyond 32 B × queryChunk.
const queryChunk = 32768

// shardQuery is the bulk-query engine behind ShardedEstimator and
// ShardedWindow: it sums, for every flow, the estimates of one or more
// sealed shard sets that share a router (the epochs of a window, or a
// single ShardedEstimator). Each chunk of flows is routed and
// counting-sorted by shard once; each shard then runs its epochs'
// EstimateMany back to back over that one group, accumulating
// 0 + e0 + e1 + … in sealed order — the float operations of the scalar
// Estimate loop — and scatters the sum once.
//
// The scratch is kept across calls, so repeated queries allocate nothing
// per flow. Not safe for concurrent use; the owners serialize queries.
type shardQuery struct {
	// ests holds the shard sets' estimators epoch by epoch, in sealed
	// order: with n shards, epoch i's shard s is ests[i*n+s], nil for an
	// unrecoverable shard. Callers fill it with addEpoch before run.
	ests []*core.Estimator

	// Per-chunk grouping: group s occupies flows[off[s]:off[s+1]], pos is
	// each grouped flow's position in the chunk, vals one epoch's pass and
	// acc the running sum.
	route []uint32
	off   []int
	cur   []int
	flows []FlowID
	pos   []int32
	vals  []float64
	acc   []float64
}

// addEpoch appends one sealed shard set's estimators.
func (q *shardQuery) addEpoch(e *ShardedEstimator) {
	for _, est := range e.ests {
		var ce *core.Estimator
		if est != nil {
			ce = est.e
		}
		q.ests = append(q.ests, ce)
	}
}

// run writes into out[i] the sum over the added epochs of flows[i]'s
// estimate.
func (q *shardQuery) run(router *hashing.ShardRouter, flows []FlowID, m Method, workers int, out []float64) {
	n := router.Shards()
	cm := coreMethod(m)
	if n == 1 {
		q.runFlat(flows, cm, workers, out)
		return
	}
	w := bulk.Workers(workers, n)
	for base := 0; base < len(flows); base += queryChunk {
		chunk := flows[base:min(base+queryChunk, len(flows))]
		q.group(router, n, chunk)
		dst := out[base : base+len(chunk)]
		// Each shard's group writes disjoint slices of vals/acc and
		// disjoint positions of dst, and a shard's estimators (and their
		// scratch) are touched only by the one worker that owns the shard.
		// The single-worker path runs the shard loop directly — handing a
		// closure to bulk.Do would heap-allocate it and break the
		// steady-state zero-alloc contract.
		if w <= 1 {
			q.estimateShards(cm, 0, n, dst)
		} else {
			bulk.Do(n, w, func(_, s0, s1 int) { q.estimateShards(cm, s0, s1, dst) })
		}
	}
}

// group routes chunk once and counting-sorts it by owning shard.
func (q *shardQuery) group(router *hashing.ShardRouter, n int, chunk []FlowID) {
	q.route = router.RouteBlock(chunk, q.route[:0])
	off := resizeInts(q.off, n+1)
	clear(off)
	for _, s := range q.route {
		off[s+1]++
	}
	for s := 0; s < n; s++ {
		off[s+1] += off[s]
	}
	cur := resizeInts(q.cur, n)
	copy(cur, off[:n])
	grouped := resizeFlowIDs(q.flows, len(chunk))
	pos := resizeInt32s(q.pos, len(chunk))
	for i, s := range q.route {
		p := cur[s]
		cur[s] = p + 1
		grouped[p] = chunk[i]
		pos[p] = int32(i)
	}
	q.off, q.cur, q.flows, q.pos = off, cur, grouped, pos
	q.vals = resizeFloats(q.vals, len(chunk))
	q.acc = resizeFloats(q.acc, len(chunk))
}

// estimateShards sums the epochs' estimates for shards [s0, s1) of the
// current grouping and scatters each sum to its position in dst.
func (q *shardQuery) estimateShards(cm core.Method, s0, s1 int, dst []float64) {
	n := len(q.off) - 1
	for s := s0; s < s1; s++ {
		lo, hi := q.off[s], q.off[s+1]
		if lo == hi {
			continue
		}
		acc := q.acc[lo:hi]
		sumEpochs(q.ests[s:], n, q.flows[lo:hi], cm, q.vals[lo:hi], acc)
		for j, p := range q.pos[lo:hi] {
			dst[p] = acc[j]
		}
	}
}

// runFlat is run for one shard: every flow belongs to it, so there is
// nothing to group and the flows themselves fan out in contiguous ranges,
// each worker summing into its range of out with private estimator forks.
func (q *shardQuery) runFlat(flows []FlowID, cm core.Method, workers int, out []float64) {
	q.vals = resizeFloats(q.vals, min(len(flows), queryChunk))
	w := bulk.Workers(workers, len(q.vals))
	if w <= 1 {
		sumEpochsChunked(q.ests, flows, cm, q.vals, out)
		return
	}
	bulk.Do(len(flows), w, func(wk, start, end int) {
		forks := make([]*core.Estimator, len(q.ests))
		for i, est := range q.ests {
			if est != nil {
				forks[i] = est.Fork()
			}
		}
		vals := q.vals[wk*len(q.vals)/w : (wk+1)*len(q.vals)/w]
		sumEpochsChunked(forks, flows[start:end], cm, vals, out[start:end])
	})
}

// sumEpochsChunked is sumEpochs over one shard's flows in runs of
// len(vals).
func sumEpochsChunked(ests []*core.Estimator, flows []FlowID, cm core.Method, vals, acc []float64) {
	for base := 0; base < len(flows); base += len(vals) {
		end := min(base+len(vals), len(flows))
		sumEpochs(ests, 1, flows[base:end], cm, vals[:end-base], acc[base:end])
	}
}

// sumEpochs writes into acc[i] the sum 0 + e0 + e1 + … of flows[i]'s
// estimates under ests[0], ests[stride], ests[2·stride], …, in order. A nil
// estimator (an unrecoverable shard) contributes the scalar path's +0,
// which is skipped: acc starts at +0 and so is never −0, and x + (+0) == x
// for every other x.
func sumEpochs(ests []*core.Estimator, stride int, flows []FlowID, cm core.Method, vals, acc []float64) {
	clear(acc)
	for i := 0; i < len(ests); i += stride {
		if ests[i] == nil {
			continue
		}
		part := ests[i].EstimateMany(flows, cm, vals)
		for j, v := range part {
			acc[j] += v
		}
	}
}

// EstimateMany sums each flow's per-epoch bulk estimates over the sealed
// epochs, in sealed order — the accumulation order of the scalar Estimate —
// so the result is bit-identical to calling Estimate in a loop. One scratch
// slice per call is the only allocation beyond dst.
func (w *Window) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	out := resizeFloats(dst, len(flows))
	for i := range out {
		out[i] = 0
	}
	if len(flows) == 0 {
		return out
	}
	cm := coreMethod(m)
	scratch := make([]float64, len(flows))
	for i, n := 0, w.lc.Len(); i < n; i++ {
		scratch = w.lc.At(i).e.EstimateMany(flows, cm, scratch)
		for j, v := range scratch {
			out[j] += v
		}
	}
	return out
}

func resizeFloats(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

func resizeInts(dst []int, n int) []int {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]int, n)
}

func resizeInt32s(dst []int32, n int) []int32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]int32, n)
}

func resizeFlowIDs(dst []FlowID, n int) []FlowID {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]FlowID, n)
}
