package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/detect"
	"github.com/caesar-sketch/caesar/internal/epoch"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/pcap"
)

// The traced run. Spans are recorded by the benchmark around its own calls
// into each module's public functions; nothing inside the program is
// instrumented. Layers that the replay path does not call are measured by
// probes over the same workload's inputs, so every workload reports every
// per-layer metric, and the attribution tables show only each path's own
// layers.

const (
	// shardRouteSeed is the seed Sharded routes flows with (shardRouteSeed
	// in sharded.go, unexported); the shadow passes route with it so each
	// shard sees the subsequence it does, and checkRoutes fails the run if
	// it ever stops matching Sharded.ShardFor.
	shardRouteSeed = 0x5ad5ad
	// shardSeedStride is Sharded's step between shard i's sketch seed and
	// shard i+1's.
	shardSeedStride = 0x9e3779b97f4a7c15
	probeReps       = 3    // shadow passes are repeated and the median kept
	intervalFlows   = 4096 // EstimateWithInterval calls per traced pass
	probeBodies     = 2048 // /observe-shaped batches in the service probes
)

// traceReplay alternates untraced and traced passes for the run's
// duration (the untraced ones give the tracing overhead), then runs the
// shadow probes, the in-process service probes and a short caesar-serve
// probe over the workload's own flows, writes the artifacts and returns the
// per-layer metrics.
func traceReplay(r *replayRun, cfg config) (metrics, error) {
	t := newTracer()
	lm := &layerMetrics{m: metrics{}}
	if err := r.traceReplayPasses(t, lm, cfg.seconds, cfg.out); err != nil {
		return nil, err
	}
	ids, err := r.shadowProbes(lm)
	if err != nil {
		return nil, err
	}
	if err := serviceProbes(lm, bodiesOf(ids[:min(len(ids), probeBodies*flowsPerBody)], flowsPerBody), r.cfg); err != nil {
		return nil, err
	}
	if err := serveProbe(cfg, ids, r.burstAREBound, t, lm); err != nil {
		return nil, err
	}
	httpResidual(lm)
	return lm.m, lm.write(t, cfg.out)
}

// layerMetrics collects the per-layer metrics and the attribution text.
type layerMetrics struct {
	m      metrics
	report strings.Builder
}

func (lm *layerMetrics) write(t *tracer, dir string) error {
	if err := t.writeJSONL(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	fmt.Fprintf(&lm.report, "\nper-layer metrics:\n")
	for _, name := range perLayerNames {
		v, ok := lm.m[name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", name)
		}
		fmt.Fprintf(&lm.report, "  %-36s %14.4f %s\n", name, v.Value, v.Unit)
	}
	fmt.Print(lm.report.String())
	return os.WriteFile(filepath.Join(dir, "attribution.txt"), []byte(lm.report.String()), 0o644)
}

// perLayerNames lists every per-layer metric a traced run reports.
var perLayerNames = []string{
	"pcap.decode_ns_per_pkt",
	"hashing.flowid_ns_per_pkt",
	"hashing.route_ns_per_pkt",
	"ingest.observe_ns_per_pkt",
	"ingest.handoff_ns_per_pkt",
	"ingest.flush_ms",
	"ingest.residual_ns_per_pkt",
	"sketch.update_ns_per_pkt",
	"sketch.hit_ratio",
	"sketch.sram_writes_per_pkt",
	"sketch.pressure_evictions",
	"sketch.overflow_evictions",
	"replay.single_sketch_mpps",
	"seal.ms",
	"checkpoint.encode_ms",
	"checkpoint.file_ms",
	"checkpoint.bytes",
	"query.queryall_ns_per_flow",
	"query.estimate_many_ns_per_flow",
	"query.interval_ns_per_flow",
	"detect.topk_ms",
	"detect.candidates_add_ns_per_flow",
	"detect.candidates",
	"serve.json_decode_ns_per_flow",
	"serve.window_observe_ns_per_flow",
	"serve.http_observe_ms",
	"serve.http_estimate_ms",
	"serve.http_topk_ms",
	"serve.http_rotate_ms",
	"serve.http_residual_ms",
	"trace.overhead_frac",
}

func (r *replayRun) traceReplayPasses(t *tracer, lm *layerMetrics, seconds int, dir string) error {
	var encMs, fileMs, ivNs, ckBytes []float64
	ckpt := filepath.Join(dir, "checkpoint.csnp")
	r.after = func(w *caesar.ShardedWindow) error {
		var buf bytes.Buffer
		a := time.Now()
		n, err := w.WriteTo(&buf)
		if err != nil {
			return fmt.Errorf("checkpoint encode: %w", err)
		}
		b := time.Now()
		if err := w.SnapshotFile(ckpt); err != nil {
			return fmt.Errorf("checkpoint file: %w", err)
		}
		c := time.Now()
		encMs, fileMs, ckBytes = append(encMs, ms(b.Sub(a))), append(fileMs, ms(c.Sub(b))), append(ckBytes, float64(n))
		nf := min(intervalFlows, len(r.ids))
		d := time.Now()
		for _, f := range r.ids[:nf] {
			w.EstimateWithInterval(f, 0.95)
		}
		ivNs = append(ivNs, float64(time.Since(d))/float64(nf))
		return nil
	}
	defer func() { r.after = nil }()

	var traced, untraced []float64 // ingest ns/pkt
	var stats []caesar.Stats
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for p := int64(0); p < 4 || time.Now().Before(deadline); p++ {
		tr := (*tracer)(nil)
		if p%2 == 1 {
			tr = t
		}
		pt, err := r.pass(tr, p)
		if err != nil {
			return err
		}
		nsPkt := float64(pt.ingest) / float64(r.in.packets)
		if tr != nil {
			traced = append(traced, nsPkt)
			stats = append(stats, r.lastStats)
		} else {
			untraced = append(untraced, nsPkt)
		}
	}
	ut := median(untraced)
	lm.m.set("trace.overhead_frac", (median(traced)-ut)/ut, "ratio")

	pk := float64(r.in.packets)
	ing := attribute(t.spans, "ingest")
	qry := attribute(t.spans, "query")
	for _, a := range []attribution{ing, qry} {
		if err := a.check(); err != nil {
			return err
		}
	}
	fmt.Fprintf(&lm.report, "%s traced run: %d traced passes, %d untraced; untraced ingest %.2f ns/pkt, traced %.2f ns/pkt (overhead %+.2f%%)\n\n",
		r.name, len(traced), len(untraced), ut, median(traced), 100*(median(traced)-ut)/ut)
	lm.report.WriteString(ing.table("ns/pkt", pk))
	lm.report.WriteString(qry.table("ms", float64(time.Millisecond)))

	perPkt := func(layers ...string) float64 {
		var xs []float64
		for i := 0; i < ing.Roots; i++ {
			var sum time.Duration
			for _, l := range layers {
				sum += ing.PerRoot[l][i]
			}
			xs = append(xs, float64(sum)/pk)
		}
		return median(xs)
	}
	lm.m.set("pcap.decode_ns_per_pkt", perPkt("pcap.read_block", "pcap.append_tuples"), "ns/pkt")
	lm.m.set("ingest.observe_ns_per_pkt", perPkt("ingest.observe_packets"), "ns/pkt")
	lm.m.set("ingest.flush_ms", median(scaled(ing.PerRoot["ingest.flush"], float64(time.Millisecond))), "ms")
	lm.m.set("ingest.residual_ns_per_pkt", median(scaled(ing.Residual, pk)), "ns/pkt")
	lm.m.set("seal.ms", median(spanMs(t.spans, "seal.rotate")), "ms")
	lm.m.set("query.queryall_ns_per_flow", median(spanMs(t.spans, "query.queryall"))*1e6/float64(len(r.ids)), "ns/flow")
	lm.m.set("query.estimate_many_ns_per_flow", median(spanMs(t.spans, "query.estimate_many"))*1e6/estimateFlows, "ns/flow")
	lm.m.set("query.interval_ns_per_flow", median(ivNs), "ns/flow")
	lm.m.set("detect.topk_ms", median(spanMs(t.spans, "detect.topk")), "ms")
	lm.m.set("checkpoint.encode_ms", median(encMs), "ms")
	lm.m.set("checkpoint.file_ms", median(fileMs), "ms")
	lm.m.set("checkpoint.bytes", median(ckBytes), "B")
	st := stats[len(stats)-1]
	lm.m.set("sketch.hit_ratio", float64(st.CacheHits)/float64(st.Packets), "ratio")
	lm.m.set("sketch.sram_writes_per_pkt", float64(st.SRAMWrites)/float64(st.Packets), "1/pkt")
	lm.m.set("sketch.pressure_evictions", float64(st.PressureEvictions), "count")
	lm.m.set("sketch.overflow_evictions", float64(st.OverflowEvictions), "count")
	return nil
}

// spanMs returns the durations (ms) of every span with the given name.
func spanMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// shadowProbes repeats the work ObservePackets does inside the program as
// separate single-threaded passes over the same packets: flow ID, shard
// routing, and each shard's sketch updates over its routed subsequence.
// It also times the single-threaded baseline of the whole job. It returns
// the packet stream's flow IDs in arrival order.
func (r *replayRun) shadowProbes(lm *layerMetrics) ([]caesar.FlowID, error) {
	rd, err := pcap.NewReader(bytes.NewReader(r.in.pcap))
	if err != nil {
		return nil, err
	}
	pkts, err := rd.ReadAll()
	if err != nil {
		return nil, err
	}
	tuples := make([]caesar.FiveTuple, len(pkts))
	for i := range pkts {
		tuples[i] = pkts[i].Tuple
	}
	pkts = nil
	n := float64(len(tuples))
	nshards := runtime.GOMAXPROCS(0)

	ider := hashing.NewFlowIDer(r.cfg.Seed)
	ids := make([]caesar.FlowID, 0, len(tuples))
	var idNs, routeNs, updNs, singleMpps []float64
	routes := make([]uint32, 0, len(tuples))
	router := hashing.NewShardRouter(nshards, shardRouteSeed)

	for rep := 0; rep < probeReps; rep++ {
		ids = ids[:0]
		a := time.Now()
		for lo := 0; lo < len(tuples); lo += blockSize {
			ids = ider.IDBlock(ids, tuples[lo:min(lo+blockSize, len(tuples))])
		}
		idNs = append(idNs, float64(time.Since(a))/n)

		routes = routes[:0]
		a = time.Now()
		for lo := 0; lo < len(ids); lo += blockSize {
			routes = router.RouteBlock(ids[lo:min(lo+blockSize, len(ids))], routes)
		}
		routeNs = append(routeNs, float64(time.Since(a))/n)

		d, err := shardUpdates(ids, routes, nshards, r.epochLen, r.cfg)
		if err != nil {
			return nil, err
		}
		updNs = append(updNs, float64(d)/n)

		d, err = r.singleSketch()
		if err != nil {
			return nil, err
		}
		singleMpps = append(singleMpps, n/d.Seconds()/1e6)
	}
	if err := checkRoutes(ids, routes, nshards, r.cfg); err != nil {
		return nil, err
	}
	lm.m.set("hashing.flowid_ns_per_pkt", median(idNs), "ns/pkt")
	lm.m.set("hashing.route_ns_per_pkt", median(routeNs), "ns/pkt")
	lm.m.set("sketch.update_ns_per_pkt", median(updNs), "ns/pkt")
	lm.m.set("replay.single_sketch_mpps", median(singleMpps), "Mpkt/s")
	obs := lm.m["ingest.observe_ns_per_pkt"].Value
	lm.m.set("ingest.handoff_ns_per_pkt", obs-median(idNs)-median(routeNs), "ns/pkt")
	fmt.Fprintf(&lm.report, "shadow passes (single-threaded, median of %d): flow ID %.2f, route %.2f, per-shard sketch update %.2f ns/pkt; "+
		"ObservePackets %.2f ns/pkt leaves %.2f ns/pkt of hand-off and back-pressure wait\n",
		probeReps, median(idNs), median(routeNs), median(updNs), obs, obs-median(idNs)-median(routeNs))
	return ids, nil
}

// checkRoutes fails unless the shadow routing sent every flow to the shard
// Sharded.ShardFor names.
func checkRoutes(ids []caesar.FlowID, routes []uint32, nshards int, cfg caesar.Config) error {
	sh, err := caesar.NewSharded(nshards, cfg)
	if err != nil {
		return err
	}
	defer sh.Close()
	for i, id := range ids {
		if got := sh.ShardFor(id); int(routes[i]) != got {
			return fmt.Errorf("shadow routing sent flow %d to shard %d, Sharded routes it to %d: shardRouteSeed no longer matches the program", id, routes[i], got)
		}
	}
	return nil
}

// shardConfig is the sketch configuration of shard i of the given epoch of
// an nshards-way ShardedWindow with per-epoch budget cfg, built as the
// program builds it: the window seeds the epoch (newEpochSharded in
// shardedwindow.go), and Sharded splits the budget with the remainders on
// the first shards and strides the shard seeds (NewShardedOptions in
// sharded.go).
func shardConfig(cfg caesar.Config, nshards, rotation, i int) caesar.Config {
	sc := cfg
	sc.Seed = epoch.Seed(cfg.Seed, rotation*(nshards+1)) + uint64(i)*shardSeedStride
	sc.Counters = cfg.Counters / nshards
	if i < cfg.Counters%nshards {
		sc.Counters++
	}
	sc.CacheEntries = cfg.CacheEntries / nshards
	if i < cfg.CacheEntries%nshards {
		sc.CacheEntries++
	}
	return sc
}

// shardUpdates feeds each shard's routed subsequence, epoch by epoch, to a
// plain single-threaded caesar.Sketch configured as that shard's sketch,
// as Sharded's workers do, and returns the time spent updating.
func shardUpdates(ids []caesar.FlowID, routes []uint32, nshards, epochLen int, cfg caesar.Config) (time.Duration, error) {
	var total time.Duration
	per := make([][]caesar.FlowID, nshards)
	for lo, rotation := 0, 0; lo < len(ids); lo, rotation = lo+epochLen, rotation+1 {
		hi := min(lo+epochLen, len(ids))
		for i := range per {
			per[i] = per[i][:0]
		}
		for j := lo; j < hi; j++ {
			per[routes[j]] = append(per[routes[j]], ids[j])
		}
		for i, seq := range per {
			sk, err := caesar.New(shardConfig(cfg, nshards, rotation, i))
			if err != nil {
				return 0, err
			}
			a := time.Now()
			for b := 0; b < len(seq); b += blockSize {
				sk.ObserveBatch(seq[b:min(b+blockSize, len(seq))])
			}
			sk.Flush()
			total += time.Since(a)
		}
	}
	return total, nil
}

// singleSketch times the whole replay job on one goroutine and one sketch
// with the full budget: decode, flow ID, update, a fresh sketch per epoch.
func (r *replayRun) singleSketch() (time.Duration, error) {
	ider := hashing.NewFlowIDer(r.cfg.Seed)
	sk, err := caesar.New(r.cfg)
	if err != nil {
		return 0, err
	}
	var pkts [blockSize]pcap.Packet
	tup := make([]caesar.FiveTuple, 0, blockSize)
	ids := make([]caesar.FlowID, 0, blockSize)
	a := time.Now()
	rd, err := pcap.NewReader(bytes.NewReader(r.in.pcap))
	if err != nil {
		return 0, err
	}
	since := 0
	for {
		n, rerr := rd.ReadBlock(pkts[:])
		tup = pcap.AppendTuples(tup[:0], pkts[:n])
		ids = ider.IDBlock(ids[:0], tup)
		sk.ObserveBatch(ids)
		if since += n; since >= r.epochLen {
			sk.Flush()
			if sk, err = caesar.New(r.cfg); err != nil {
				return 0, err
			}
			since = 0
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, rerr
		}
	}
	sk.Flush()
	return time.Since(a), nil
}

// serviceProbes times what caesar-serve does per /observe request, in
// process and on the same flows: JSON decode into the handler's request
// shape, ShardedWindow.ObserveBatch and Candidates.AddBatch, then
// detect.TopK over the candidate count reached.
func serviceProbes(lm *layerMetrics, in *serveInputs, cfg caesar.Config) error {
	w, err := caesar.NewShardedWindowOptions(serveEpochs, 0, cfg, caesar.ShardedOptions{})
	if err != nil {
		return err
	}
	defer w.Close()
	var cands detect.Candidates
	var jsonD, obsD, candD time.Duration
	flows := 0
	for _, body := range in.bodies {
		a := time.Now()
		var req struct {
			Flows []caesar.FlowID `json:"flows"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return err
		}
		b := time.Now()
		w.ObserveBatch(req.Flows)
		c := time.Now()
		cands.AddBatch(req.Flows)
		d := time.Now()
		jsonD, obsD, candD = jsonD+b.Sub(a), obsD+c.Sub(b), candD+d.Sub(c)
		flows += len(req.Flows)
	}
	if err := w.Rotate(); err != nil {
		return err
	}
	var topMs []float64
	for rep := 0; rep < probeReps; rep++ {
		a := time.Now()
		top := detect.TopK(w, cands.Flows(), caesar.CSM, topkK, 0)
		topMs = append(topMs, ms(time.Since(a)))
		if err := checkTopK(top, min(topkK, cands.Len())); err != nil {
			return err
		}
	}
	f := float64(flows)
	lm.m.set("serve.json_decode_ns_per_flow", float64(jsonD)/f, "ns/flow")
	lm.m.set("serve.window_observe_ns_per_flow", float64(obsD)/f, "ns/flow")
	lm.m.set("detect.candidates_add_ns_per_flow", float64(candD)/f, "ns/flow")
	lm.m.set("detect.candidates", float64(cands.Len()), "count")
	fmt.Fprintf(&lm.report, "service probes over %d /observe bodies: JSON decode %.1f, window ObserveBatch %.1f, candidate insert %.1f ns/flow; "+
		"TopK over %d candidates %.2f ms\n", len(in.bodies), float64(jsonD)/f, float64(obsD)/f, float64(candD)/f, cands.Len(), median(topMs))
	return nil
}

// httpAttribution turns the mixed phase's requests into spans (due time →
// dispatch → sent on a connection → response), writes each request kind's
// attribution table, and sets the serve.http_* per-layer metrics.
func (s *serveRun) httpAttribution(t *tracer, lm *layerMetrics) error {
	for i, e := range s.events {
		root := t.add("serve."+kindName[e.kind], -1, int64(i), e.due, e.end)
		t.add("gen.late", root, int64(i), e.due, e.dispatched)
		t.add("client.queue", root, int64(i), e.dispatched, e.sent)
		t.add("http."+kindName[e.kind], root, int64(i), e.sent, e.end)
	}
	late, behind := s.lateness()
	lateP99, err := percentile(late, 99)
	if err != nil {
		return err
	}
	fmt.Fprintf(&lm.report, "caesar-serve mixed phase: %d requests; generator late p99 %.3f ms (gen.late_p99_ms), "+
		"%d sends behind schedule by > %v (gen.behind_sends), %d earlier phases discarded as late; "+
		"serve.shed_requests %d, serve.rotations %d; burst elephant_are %.4f\n"+
		"HTTP spans are built from timestamps the generator takes for every request, so they add no tracing overhead.\n\n",
		len(s.events), lateP99, behind, lateLimit, s.discarded, s.shedRequests, s.rotations, s.are)
	for k := 0; k < nKinds; k++ {
		a := attribute(t.spans, "serve."+kindName[k])
		if err := a.check(); err != nil {
			return err
		}
		lm.report.WriteString(a.table("ms", float64(time.Millisecond)))
		lm.m.set("serve.http_"+kindName[k]+"_ms", median(spanMs(t.spans, "http."+kindName[k])), "ms")
	}
	return nil
}

// httpResidual splits the /observe round trip into the in-process work of
// one body (service probes) and the HTTP residual.
func httpResidual(lm *layerMetrics) {
	rt := lm.m["serve.http_observe_ms"].Value
	perReq := flowsPerBody * (lm.m["serve.json_decode_ns_per_flow"].Value + lm.m["serve.window_observe_ns_per_flow"].Value +
		lm.m["detect.candidates_add_ns_per_flow"].Value) / 1e6
	lm.m.set("serve.http_residual_ms", rt-perReq, "ms")
	fmt.Fprintf(&lm.report, "/observe round trip p50 %.3f ms = JSON decode + window ingest + candidate insert %.3f ms + HTTP residual %.3f ms\n",
		rt, perReq, rt-perReq)
}

// serveProbe runs caesar-serve over the packet stream's flow IDs and
// attributes its request latencies.
func serveProbe(cfg config, ids []caesar.FlowID, areBound float64, t *tracer, lm *layerMetrics) error {
	if cfg.serveBin == "" {
		return fmt.Errorf("the traced run needs -serve-bin")
	}
	in := bodiesOf(ids, flowsPerBody)
	in.burst = bodiesOf(ids[:min(len(ids), burstPackets)], burstFlowsPerBody)
	s := newServeRun(in, areBound)
	defer s.close()
	fmt.Fprintf(&lm.report, "\ncaesar-serve probe over this workload's flows (%v mixed phase, then one burst):\n", mixedDuration)
	if err := s.probe(cfg.serveBin, filepath.Join(cfg.out, "serve-probe"), paperConfig(cfg.seed)); err != nil {
		return err
	}
	return s.httpAttribution(t, lm)
}
