package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/detect"
	"github.com/caesar-sketch/caesar/internal/pcap"
)

const (
	blockSize      = 256               // packets per ReadBlock, as in examples/pcapingest
	epochsPerPass  = 6                 // a pass rotates every ⌈packets/6⌉ packets
	windowEpochs   = epochsPerPass + 2 // retains every epoch of a pass, so queries see the whole trace
	estimateFlows  = 16                // flows per EstimateMany call: the /estimate request shape
	estimateCalls  = 1024              // per pass
	topkK          = 100               // the /topk?k=100 shape
	topkCandidates = 16384             // candidates per replay TopK call
	topkCalls      = 32                // per pass
	areFlows       = 1000              // elephants scored by elephant_are
	setupRuns      = 64                // window constructions timed for setup_s
)

// replayRun holds one replay workload's inputs and the samples its passes
// collect. A pass builds a fresh window, replays the whole capture through
// one producer, seals, runs the query pass, checks the outputs and closes.
type replayRun struct {
	name string
	in   *replayInputs
	cfg  caesar.Config
	opts caesar.ShardedOptions
	// areBound is the largest elephant_are the checks accept;
	// burstAREBound the largest the service probe's burst may give.
	areBound, burstAREBound float64

	epochLen int             // packets per epoch
	ids      []caesar.FlowID // window flow ID of every flow, aligned with in.flows
	top      []int           // the areFlows largest flows
	est      []float64       // QueryAll destination, reused

	// Per-call latencies of each pass, with scratch allocated before the
	// first heap reading so that it never counts as memory retained by
	// the window.
	obsLat, estLat, topLat *callTimes
	estBuf                 []float64

	// Samples across passes, one per pass.
	setup, memMB, ingestMpps, queryMflows, are []float64
	presented, dropped                         int64
	lastStats                                  caesar.Stats

	// after, when set, runs on each pass's sealed window before it closes
	// (the traced run's checkpoint and interval probes).
	after func(w *caesar.ShardedWindow) error
}

func newReplayRun(name string, in *replayInputs, seed uint64, areBound, burstAREBound float64) *replayRun {
	blocks := in.packets/blockSize + 1
	return &replayRun{
		name:          name,
		in:            in,
		cfg:           paperConfig(seed),
		opts:          caesar.ShardedOptions{FlowHash: caesar.FlowHashFast},
		areBound:      areBound,
		burstAREBound: burstAREBound,
		epochLen:      (in.packets + epochsPerPass - 1) / epochsPerPass,
		top:           in.flows.largest(areFlows),
		est:           make([]float64, len(in.flows.tuples)),
		obsLat:        newCallTimes("observe", blocks),
		estLat:        newCallTimes("estimate", estimateCalls),
		topLat:        newCallTimes("topk", topkCalls),
		estBuf:        make([]float64, 0, topkCandidates),
	}
}

// passTiming is what one pass measured, before it joins the samples.
type passTiming struct {
	ingest, query time.Duration
	heap          int64
}

// pass runs one replay pass. t may be nil (untraced); root is the parent
// span for this pass's spans.
func (r *replayRun) pass(t *tracer, passNo int64) (passTiming, error) {
	var pt passTiming
	for _, c := range r.calls() {
		c.pass = c.pass[:0]
	}

	var ms0 runtime.MemStats
	settledHeap(&ms0)

	root := t.begin("replay.pass", -1, passNo)
	s0 := time.Now()
	w, err := caesar.NewShardedWindowOptions(windowEpochs, 0, r.cfg, r.opts)
	if err != nil {
		return pt, err
	}
	defer w.Close()
	h := w.Ingester()
	t.add("setup", root, passNo, s0, time.Now())

	if r.ids == nil {
		r.ids = make([]caesar.FlowID, len(r.in.flows.tuples))
		for i, tup := range r.in.flows.tuples {
			r.ids[i] = w.HashTuple(tup)
		}
	}

	// Ingest: ReadBlock → AppendTuples → ObservePackets, rotating every
	// epochLen packets, then Flush + the final seal.
	ing := t.begin("ingest", root, passNo)
	start := time.Now()
	rd, err := pcap.NewReader(bytes.NewReader(r.in.pcap))
	if err != nil {
		return pt, err
	}
	var pkts [blockSize]pcap.Packet
	tup := make([]caesar.FiveTuple, 0, blockSize)
	presented, sinceRotate := 0, 0
	for block := int64(0); ; block++ {
		a := time.Now()
		n, rerr := rd.ReadBlock(pkts[:])
		b := time.Now()
		tup = pcap.AppendTuples(tup[:0], pkts[:n])
		c := time.Now()
		h.ObservePackets(tup)
		d := time.Now()
		if t != nil {
			t.add("pcap.read_block", ing, block, a, b)
			t.add("pcap.append_tuples", ing, block, b, c)
			t.add("ingest.observe_packets", ing, block, c, d)
		}
		if n > 0 {
			r.obsLat.add(d.Sub(c))
		}
		presented += n
		sinceRotate += n
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return pt, fmt.Errorf("pcap replay: %w", rerr)
		}
		if sinceRotate >= r.epochLen {
			if err := r.rotate(t, w, ing, block); err != nil {
				return pt, err
			}
			sinceRotate = 0
		}
	}
	f0 := time.Now()
	h.Flush()
	t.add("ingest.flush", ing, passNo, f0, time.Now())
	if err := r.rotate(t, w, ing, -1); err != nil {
		return pt, err
	}
	pt.ingest = time.Since(start)
	t.finish(ing)

	if err := r.checkLedger(rd.Stats(), w, presented); err != nil {
		return pt, err
	}
	r.presented += int64(presented)
	r.dropped += int64(w.DroppedPackets())

	// Query pass over every generated flow, then the /estimate- and
	// /topk-shaped calls.
	qs := t.begin("query", root, passNo)
	q0 := time.Now()
	r.est = w.QueryAll(r.ids, caesar.CSM, 0, r.est)
	q1 := time.Now()
	pt.query = q1.Sub(q0)
	t.add("query.queryall", qs, passNo, q0, q1)
	if err := r.estimateCalls(t, w, qs, passNo); err != nil {
		return pt, err
	}
	if err := r.topkCalls(t, w, qs, passNo); err != nil {
		return pt, err
	}
	t.finish(qs)
	if err := r.checkEstimates(); err != nil {
		return pt, err
	}

	var ms1 runtime.MemStats
	settledHeap(&ms1)
	pt.heap = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)
	r.lastStats = w.Stats()
	t.finish(root)
	if r.after != nil {
		if err := r.after(w); err != nil {
			return pt, err
		}
	}
	return pt, nil
}

// settledHeap reads the heap statistics after two collections: the first
// moves idle sync.Pool buffers to the pools' victim caches and the second
// frees them, so the reading holds only what is reachable, not how many
// batch buffers the shard workers happened to leave pooled.
func settledHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

// rotate seals the current epoch; a traced pass records it as a span.
func (r *replayRun) rotate(t *tracer, w *caesar.ShardedWindow, parent int, block int64) error {
	a := time.Now()
	if err := w.Rotate(); err != nil {
		return fmt.Errorf("rotate: %w", err)
	}
	b := time.Now()
	t.add("seal.rotate", parent, block, a, b)
	return nil
}

// estimateCalls issues estimateCalls EstimateMany calls of estimateFlows
// flows each, walking the flow list from a pass-dependent offset, and
// checks each answer against the QueryAll pass (bit-identical by contract).
func (r *replayRun) estimateCalls(t *tracer, w *caesar.ShardedWindow, parent int, passNo int64) error {
	n := len(r.ids)
	off := int(passNo) * estimateFlows * estimateCalls % n
	for c := 0; c < estimateCalls; c++ {
		lo := (off + c*estimateFlows) % (n - estimateFlows + 1)
		flows := r.ids[lo : lo+estimateFlows]
		a := time.Now()
		r.estBuf = w.EstimateMany(flows, caesar.CSM, r.estBuf)
		b := time.Now()
		t.add("query.estimate_many", parent, int64(c), a, b)
		r.estLat.add(b.Sub(a))
		for i, v := range r.estBuf {
			if v != r.est[lo+i] {
				return gateErr("EstimateMany(flow %d) = %v, QueryAll gave %v", lo+i, v, r.est[lo+i])
			}
		}
	}
	return nil
}

// topkCalls ranks topkCandidates-flow slices of the flow list with
// detect.TopK and checks each ranking.
func (r *replayRun) topkCalls(t *tracer, w *caesar.ShardedWindow, parent int, passNo int64) error {
	n := len(r.ids)
	size := min(topkCandidates, n)
	for c := 0; c < topkCalls; c++ {
		lo := (int(passNo)*topkCalls + c) * size % (n - size + 1)
		cands := r.ids[lo : lo+size]
		a := time.Now()
		top := detect.TopK(w, cands, caesar.CSM, topkK, 0)
		b := time.Now()
		t.add("detect.topk", parent, int64(c), a, b)
		r.topLat.add(b.Sub(a))
		if err := checkTopK(top, min(topkK, size)); err != nil {
			return err
		}
		if got, want := top[0].Estimate, maxOf(r.est[lo:lo+size]); got != want {
			return gateErr("TopK leader estimate %v, QueryAll maximum %v", got, want)
		}
	}
	return nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// checkTopK verifies a ranking's length and order.
func checkTopK(top []detect.Flow, want int) error {
	if len(top) != want {
		return gateErr("TopK returned %d flows, want %d", len(top), want)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Estimate > top[i-1].Estimate {
			return gateErr("TopK not descending at rank %d", i)
		}
	}
	return nil
}

// checkLedger enforces observed == packets + drops and that the decoder
// saw every generated packet.
func (r *replayRun) checkLedger(st pcap.Stats, w *caesar.ShardedWindow, presented int) error {
	if st.Records != r.in.packets || st.Parsed != r.in.packets {
		return gateErr("pcap decode: %d records, %d parsed, want %d", st.Records, st.Parsed, r.in.packets)
	}
	return ledgerCheck(uint64(presented), w.NumPackets(), w.DroppedPackets(), 0)
}

// ledgerCheck is the accounting identity every workload must keep:
// presented == applied + dropped + shed.
func ledgerCheck(presented, applied, dropped, shed uint64) error {
	if presented != applied+dropped+shed {
		return gateErr("ledger: presented %d != packets %d + drops %d + shed %d", presented, applied, dropped, shed)
	}
	return nil
}

// checkEstimates scores the elephants and checks that the estimates of all
// flows account for the packets applied.
func (r *replayRun) checkEstimates() error {
	are, err := checkOutputs(r.est, r.in.flows.sizes, r.top, r.areBound)
	r.are = append(r.are, are)
	return err
}

// checkOutputs scores the elephants in top and checks the estimates of
// every flow against the generator's exact sizes; it returns elephant_are.
func checkOutputs(est []float64, sizes []int, top []int, areBound float64) (float64, error) {
	are := elephantARE(est, sizes, top)
	if !(are <= areBound) {
		return are, gateErr("elephant_are %.4f above bound %.4f", are, areBound)
	}
	if giants := top[:giantFlows]; sizes[giants[len(giants)-1]] >= giantSize {
		if g := elephantARE(est, sizes, giants); !(g <= giantAREBound) {
			return are, gateErr("the %d largest flows have ARE %.4f, above %.2f", giantFlows, g, giantAREBound)
		}
		return are, nil
	}
	// No giants (mice): the class means must still tell the largest flows
	// from the smallest, which averaging over 10^5 flows per class makes
	// exact to a few hundredths of a packet.
	lo, hi := sizes[top[len(top)-1]], sizes[top[0]]
	for _, s := range sizes {
		lo = min(lo, s)
	}
	var sumLo, sumHi, nLo, nHi float64
	for i, s := range sizes {
		switch s {
		case lo:
			sumLo, nLo = sumLo+est[i], nLo+1
		case hi:
			sumHi, nHi = sumHi+est[i], nHi+1
		}
	}
	want := float64(hi - lo)
	if got := sumHi/nHi - sumLo/nLo; !(math.Abs(got-want) <= slopeTolerance*want) {
		return are, gateErr("size-%d flows estimate %.3f packets above size-%d flows, want %.0f", hi, got, lo, want)
	}
	return are, nil
}

// Output checks beyond the elephant_are bound. At the paper's budget the
// sharing noise on a 100-packet flow is several times its size, so
// elephant_are alone would pass an estimator that returns zeros; the
// giants (thousands of packets, where noise is a few percent) or, without
// giants, the class means catch that.
const (
	giantFlows     = 10
	giantSize      = 1000
	giantAREBound  = 0.25
	slopeTolerance = 0.25
)

// elephantARE is the average relative error over the flows in top.
func elephantARE(est []float64, sizes []int, top []int) float64 {
	var sum float64
	for _, i := range top {
		sum += math.Abs(est[i]-float64(sizes[i])) / float64(sizes[i])
	}
	return sum / float64(len(top))
}

// record folds one pass's measurements into the run's samples.
func (r *replayRun) record(pt passTiming) {
	r.memMB = append(r.memMB, float64(pt.heap)/1e6)
	r.ingestMpps = append(r.ingestMpps, float64(r.in.packets)/pt.ingest.Seconds()/1e6)
	r.queryMflows = append(r.queryMflows, float64(len(r.ids))/pt.query.Seconds()/1e6)
	for _, c := range r.calls() {
		c.endPass()
	}
}

// setupSamples times setupRuns window constructions after the passes, for
// setup_s. Each starts right after a collection: otherwise the
// constructions' own garbage triggers collections whose assist work lands
// on whichever set-ups happen to run then. The passes' own constructions
// are not sampled: they follow a pass's teardown and read slower (a median
// of 0.21 ms over both kinds in 30-second runs, 0.14 ms over these alone),
// so mixing them in would let the number of passes in a run, which follows
// the host's speed, move the median.
func (r *replayRun) setupSamples() error {
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		s0 := time.Now()
		w, err := caesar.NewShardedWindowOptions(windowEpochs, 0, r.cfg, r.opts)
		if err != nil {
			return err
		}
		w.Ingester()
		r.setup = append(r.setup, time.Since(s0).Seconds())
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// callTimes collects one kind of call's latencies: the calls of the pass
// in progress, and each finished pass's median and tail.
type callTimes struct {
	name      string
	pass      []time.Duration
	p50, tail []float64 // ms, one per pass
	tailP     float64   // the tail's percentile
	n         int       // calls per pass
}

func newCallTimes(name string, perPass int) *callTimes {
	return &callTimes{name: name, pass: make([]time.Duration, 0, perPass)}
}

func (c *callTimes) add(d time.Duration) { c.pass = append(c.pass, d) }

func (r *replayRun) calls() []*callTimes { return []*callTimes{r.obsLat, r.estLat, r.topLat} }

// endPass records the pass's median call and its highest percentile with
// at least minBeyond calls beyond it.
func (c *callTimes) endPass() {
	xs := durationsMs(c.pass)
	c.n, c.tailP = len(xs), highestPercentile(len(xs))
	c.p50 = append(c.p50, median(xs))
	if tail, err := percentile(xs, c.tailP); err == nil {
		c.tail = append(c.tail, tail)
	}
}

// summary renders the median over passes of each pass's p50 and tail. The
// tail is a diagnostic, not a metric: it follows how often the host
// preempts the caller more than it follows the program.
func (c *callTimes) summary() string {
	out := fmt.Sprintf("median over %d passes of each pass's p50 %.6f ms", len(c.p50), median(c.p50))
	if c.tailP > 50 {
		out += fmt.Sprintf(", p%g %.6f ms", c.tailP, median(c.tail))
	}
	return out + fmt.Sprintf(" (%d calls per pass)", c.n)
}

// runReplay runs untraced passes for the given duration and returns the
// end-to-end metrics: each is the median over passes, so a pass that meets
// a stall of the host moves no figure.
func runReplay(r *replayRun, seconds int) (metrics, error) {
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for p := int64(0); p == 0 || time.Now().Before(deadline); p++ {
		pt, err := r.pass(nil, p)
		if err != nil {
			return nil, err
		}
		r.record(pt)
	}
	if err := r.setupSamples(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d passes; ingest Mpkt/s per pass %s; query Mflow/s per pass %s\n",
		len(r.ingestMpps), spreadSummary(r.ingestMpps), spreadSummary(r.queryMflows))
	m := metrics{}
	m.set("setup_s", median(r.setup), "s")
	m.set("mem_mb", median(r.memMB), "MB")
	m.set("ingest_mpps", median(r.ingestMpps), "Mpkt/s")
	m.set("query_mflows_s", median(r.queryMflows), "Mflow/s")
	m.set("elephant_are", median(r.are), "ratio")
	for _, c := range r.calls() {
		m.set(c.name+"_p50_ms", median(c.p50), "ms")
		fmt.Fprintf(os.Stderr, "e2ebench: %s call: %s\n", c.name, c.summary())
	}
	return m, nil
}
