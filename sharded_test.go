package caesar

import (
	"math"
	"sync"
	"testing"

	"github.com/caesar-sketch/caesar/internal/faultinject"
	"github.com/caesar-sketch/caesar/internal/hashing"
)

func shardedConfig() Config {
	return Config{
		Counters:      1 << 14,
		CacheEntries:  1 << 10,
		CacheCapacity: 32,
		Seed:          1,
	}
}

// cyclicFlows returns n packets cycling over m flows: packet i belongs to
// flow i%m.
func cyclicFlows(n, m int) []FlowID {
	flows := make([]FlowID, n)
	for i := range flows {
		flows[i] = FlowID(i % m)
	}
	return flows
}

// repeatFlow returns n packets of one flow.
func repeatFlow(f FlowID, n int) []FlowID {
	flows := make([]FlowID, n)
	for i := range flows {
		flows[i] = f
	}
	return flows
}

// smallShardedConfig is a small-budget config that still exercises cache
// evictions and counter traffic.
func smallShardedConfig() Config {
	return Config{Counters: 1<<12 + 3, CacheEntries: 1<<8 + 3, CacheCapacity: 32, Seed: 42}
}

func TestShardedBasic(t *testing.T) {
	s, err := NewSharded(4, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	const x = 2000
	s.Ingester().ObserveBatch(repeatFlow(77, x))
	s.Close()
	if s.NumPackets() != x {
		t.Fatalf("NumPackets = %d, want %d", s.NumPackets(), x)
	}
	est, err := s.Estimator()
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Estimate(77, CSM); math.Abs(got-x) > 2 {
		t.Fatalf("estimate = %v, want ~%d", got, x)
	}
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded(-1, shardedConfig()); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := NewSharded(1<<20, shardedConfig()); err == nil {
		t.Error("budget smaller than shard count accepted")
	}
	cfg := shardedConfig()
	cfg.Counters = 0
	if _, err := NewSharded(2, cfg); err == nil {
		t.Error("zero counters accepted")
	}
}

func TestShardedDefaultShardCount(t *testing.T) {
	s, err := NewSharded(0, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() < 1 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	s.Close()
}

func TestShardedConcurrentIngest(t *testing.T) {
	s, err := NewSharded(4, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 8
		perWriter = 5000
		flows     = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Ingester()
			for i := 0; i < perWriter; i++ {
				h.ObserveBatch([]FlowID{FlowID((w*perWriter + i) % flows)})
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	if got := s.NumPackets(); got != writers*perWriter {
		t.Fatalf("NumPackets = %d, want %d", got, writers*perWriter)
	}
	// Every flow received exactly writers*perWriter/flows packets; a small
	// minority will carry counter-sharing noise (~x/k) from a neighbor.
	est, err := s.Estimator()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(writers * perWriter / flows)
	within := 0
	for f := FlowID(0); f < flows; f++ {
		if got := est.Estimate(f, CSM); math.Abs(got-want) < 0.1*want {
			within++
		}
	}
	if within < flows*85/100 {
		t.Fatalf("only %d/%d flows within 10%% of truth", within, flows)
	}
}

func TestShardedRouteStability(t *testing.T) {
	s, err := NewSharded(8, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for f := FlowID(0); f < 1000; f++ {
		a, b := s.ShardFor(f), s.ShardFor(f)
		if a != b || a < 0 || a >= 8 {
			t.Fatalf("unstable or out-of-range shard for flow %d: %d/%d", f, a, b)
		}
	}
}

func TestShardedRouteBalance(t *testing.T) {
	s, err := NewSharded(8, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	counts := make([]int, 8)
	const flows = 80000
	for f := FlowID(0); f < flows; f++ {
		counts[s.ShardFor(f)]++
	}
	want := float64(flows) / 8
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Errorf("shard %d owns %d flows, want ~%.0f", i, c, want)
		}
	}
}

func TestShardedCloseIdempotentAndGates(t *testing.T) {
	s, err := NewSharded(2, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimator(); err == nil {
		t.Fatal("Estimator before Close accepted")
	}
	h := s.Ingester()
	h.ObserveBatch([]FlowID{1})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Estimator(); err != nil {
		t.Fatal(err)
	}
	// Ingest after Close is the documented counted no-op: the packets are
	// discarded, accounted in DroppedAfterClose, and the sketch is untouched.
	h.ObserveBatch([]FlowID{2})
	h.ObserveBatch([]FlowID{3, 4, 5})
	if got := s.NumPackets(); got != 1 {
		t.Fatalf("NumPackets after post-Close observes = %d, want 1", got)
	}
	st := s.Stats()
	if st.DroppedAfterClose != 4 {
		t.Fatalf("DroppedAfterClose = %d, want 4", st.DroppedAfterClose)
	}
	if st.DroppedPackets != 4 || st.EffectiveLossRate <= 0 {
		t.Fatalf("loss ledger inconsistent after post-Close observes: %+v", st)
	}
}

func TestShardedStatsAggregate(t *testing.T) {
	s, err := NewSharded(4, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Ingester().ObserveBatch(cyclicFlows(10000, 500))
	s.Close()
	st := s.Stats()
	if st.Packets != 10000 {
		t.Fatalf("aggregated packets = %d", st.Packets)
	}
	if st.CacheHits+st.CacheMisses != st.Packets {
		t.Fatalf("hits+misses != packets: %+v", st)
	}
	single, _ := New(shardedConfig())
	_ = single.Stats()
	if st.SRAMKB <= 0 {
		t.Fatal("aggregated memory accounting missing")
	}
}

// shardOracle replays, on plain Sketches, what a Sharded does with one
// producer under the Block policy. Each oracle sketch is configured exactly
// as NewShardedOptions configures its shard (budget remainders on the first
// shards, strided seeds), receives the flows routed to it in BatchSize
// batches, and sees the BeforeEnqueue and OnWorkerBatch hooks called in the
// order a single producer and the shard workers call them. Its ledger is
// the drop accounting Sharded is specified to keep.
type shardOracle struct {
	shards  []*Sketch
	bufs    [][]FlowID
	batch   int
	hooks   ShardedHooks
	down    []bool
	dropped []uint64 // per shard
	ledger  Stats    // Dropped* fields only
}

func newShardOracle(t *testing.T, n int, cfg Config, batch int, hooks ShardedHooks) *shardOracle {
	t.Helper()
	o := &shardOracle{
		shards:  make([]*Sketch, n),
		bufs:    make([][]FlowID, n),
		batch:   batch,
		hooks:   hooks,
		down:    make([]bool, n),
		dropped: make([]uint64, n),
	}
	for i := range o.shards {
		per := cfg
		per.Counters = cfg.Counters / n
		if i < cfg.Counters%n {
			per.Counters++
		}
		per.CacheEntries = cfg.CacheEntries / n
		if i < cfg.CacheEntries%n {
			per.CacheEntries++
		}
		per.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		sk, err := New(per)
		if err != nil {
			t.Fatal(err)
		}
		o.shards[i] = sk
	}
	return o
}

// route is the historical flow → shard rule, MixWithSeed % n.
func (o *shardOracle) route(flow FlowID) int {
	return int(hashing.MixWithSeed(uint64(flow), shardRouteSeed) % uint64(len(o.shards)))
}

// observe routes one packet and hands the shard's buffer off once it holds
// a full batch.
func (o *shardOracle) observe(flow FlowID) {
	i := o.route(flow)
	o.bufs[i] = append(o.bufs[i], flow)
	if len(o.bufs[i]) < o.batch {
		return
	}
	if hook := o.hooks.BeforeEnqueue; hook != nil && !hook(i, o.batch) {
		o.drop(i, o.batch, &o.ledger.DroppedInjected)
	} else {
		o.apply(i, o.bufs[i])
	}
	o.bufs[i] = o.bufs[i][:0]
}

// apply is the shard worker: a batch for a quarantined shard is a counted
// drop, and a panicking batch quarantines its shard and counts the packets
// it did not apply.
func (o *shardOracle) apply(i int, b []FlowID) {
	if o.down[i] {
		o.drop(i, len(b), &o.ledger.DroppedQuarantine)
		return
	}
	before := o.shards[i].NumPackets()
	defer func() {
		if recover() != nil {
			o.down[i] = true
			o.drop(i, len(b)-int(o.shards[i].NumPackets()-before), &o.ledger.DroppedQuarantine)
		}
	}()
	if hook := o.hooks.OnWorkerBatch; hook != nil {
		hook(i, len(b))
	}
	o.shards[i].ObserveBatch(b)
}

func (o *shardOracle) drop(i, n int, cause *uint64) {
	*cause += uint64(n)
	o.dropped[i] += uint64(n)
	o.ledger.DroppedPackets += uint64(n)
	o.ledger.DroppedBatches++
}

// close is Sharded.Close: partial buffers reach their workers without the
// BeforeEnqueue hook, then every shard's cache is flushed.
func (o *shardOracle) close() {
	for i, b := range o.bufs {
		if len(b) > 0 {
			o.apply(i, b)
		}
		o.shards[i].Flush()
	}
}

// TestShardedMatchesSingleSketchPerFlow is the differential test of the
// ingest plumbing: a Sharded must end in exactly the state of N plain
// Sketches, each configured like its shard and fed its routed subsequence
// (shardOracle). Estimates must be bit-identical for every flow, the drop
// ledger equal field by field, and the quarantine state the same — with a
// seeded DropBatches/PanicWorker fault schedule replayed on both sides, and
// without faults.
func TestShardedMatchesSingleSketchPerFlow(t *testing.T) {
	faultHooks := func() ShardedHooks {
		inj := faultinject.New(0xfeed)
		return ShardedHooks{
			BeforeEnqueue: inj.DropBatches(0.05),
			OnWorkerBatch: inj.PanicWorker(2, 7),
		}
	}
	for _, tc := range []struct {
		name    string
		shards  int
		cfg     Config
		batch   int // ShardedOptions.BatchSize; 0 = default
		hooks   func() ShardedHooks
		packets int
		flows   int  // population size
		uniform bool // packet i belongs to flow i%flows (else seeded random)
		chunk   int  // packets per ObserveBatch call
	}{
		{name: "faults", shards: 4, cfg: smallShardedConfig(), batch: 64, hooks: faultHooks,
			packets: 120_000, flows: 5000, chunk: 100},
		{name: "fault-free", shards: 2, cfg: shardedConfig(),
			packets: 30_000, flows: 100, uniform: true, chunk: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := make([]FlowID, tc.packets)
			rng := hashing.NewPRNG(2024)
			for i := range trace {
				if tc.uniform {
					trace[i] = FlowID(i % tc.flows)
				} else {
					trace[i] = FlowID(rng.Intn(tc.flows))
				}
			}
			var hooks ShardedHooks
			if tc.hooks != nil {
				hooks = tc.hooks()
			}
			s, err := NewShardedOptions(tc.shards, tc.cfg, ShardedOptions{BatchSize: tc.batch, Hooks: hooks})
			if err != nil {
				t.Fatal(err)
			}
			if tc.hooks != nil {
				hooks = tc.hooks() // a fresh, identically seeded schedule for the oracle
			}
			o := newShardOracle(t, tc.shards, tc.cfg, s.Options().BatchSize, hooks)
			h := s.Ingester()
			for start := 0; start < len(trace); start += tc.chunk {
				chunk := trace[start:min(start+tc.chunk, len(trace))]
				h.ObserveBatch(chunk)
				for _, f := range chunk {
					o.observe(f)
				}
			}
			s.Close()
			o.close()

			st := s.Stats()
			var sum Stats // the oracle shards' sketch counters, summed
			for _, sk := range o.shards {
				ss := sk.Stats()
				sum.Packets += ss.Packets
				sum.CacheHits += ss.CacheHits
				sum.PressureEvictions += ss.PressureEvictions
				sum.FlushEvictions += ss.FlushEvictions
				sum.SRAMWrites += ss.SRAMWrites
				sum.CacheKB += ss.CacheKB
				sum.SRAMKB += ss.SRAMKB
			}
			if st.CacheKB != sum.CacheKB || st.SRAMKB != sum.SRAMKB {
				t.Errorf("memory: %v/%v KB cache/SRAM, oracle %v/%v", st.CacheKB, st.SRAMKB, sum.CacheKB, sum.SRAMKB)
			}
			for _, f := range []struct {
				name        string
				got, oracle uint64
			}{
				{"Packets", uint64(st.Packets), uint64(sum.Packets)},
				{"CacheHits", uint64(st.CacheHits), uint64(sum.CacheHits)},
				{"PressureEvictions", uint64(st.PressureEvictions), uint64(sum.PressureEvictions)},
				{"FlushEvictions", uint64(st.FlushEvictions), uint64(sum.FlushEvictions)},
				{"SRAMWrites", uint64(st.SRAMWrites), uint64(sum.SRAMWrites)},
				{"DroppedOverflow", st.DroppedOverflow, o.ledger.DroppedOverflow},
				{"DroppedSampled", st.DroppedSampled, o.ledger.DroppedSampled},
				{"DroppedQuarantine", st.DroppedQuarantine, o.ledger.DroppedQuarantine},
				{"DroppedTimeout", st.DroppedTimeout, o.ledger.DroppedTimeout},
				{"DroppedAfterClose", st.DroppedAfterClose, o.ledger.DroppedAfterClose},
				{"DroppedInjected", st.DroppedInjected, o.ledger.DroppedInjected},
				{"DroppedPackets", st.DroppedPackets, o.ledger.DroppedPackets},
				{"DroppedBatches", st.DroppedBatches, o.ledger.DroppedBatches},
			} {
				if f.got != f.oracle {
					t.Errorf("Stats.%s = %d, oracle %d", f.name, f.got, f.oracle)
				}
			}
			if got := s.NumPackets() + s.DroppedPackets(); got != uint64(len(trace)) {
				t.Errorf("ledger: applied+dropped = %d, observed %d", got, len(trace))
			}
			quarantined := 0
			for i := range o.shards {
				if _, down := s.ShardPanic(i); down != o.down[i] {
					t.Errorf("shard %d: quarantined %v, oracle %v", i, down, o.down[i])
				}
				if got := s.ShardDropped(i); got != o.dropped[i] {
					t.Errorf("shard %d: ShardDropped %d, oracle %d", i, got, o.dropped[i])
				}
				if o.down[i] {
					quarantined++
				}
			}
			if st.QuarantinedShards != quarantined {
				t.Errorf("QuarantinedShards = %d, oracle %d", st.QuarantinedShards, quarantined)
			}
			if tc.hooks != nil && quarantined == 0 {
				t.Fatal("the fault schedule quarantined no shard; the input does not exercise the quarantine path")
			}
			if tc.hooks == nil && st.DroppedPackets != 0 {
				t.Fatalf("fault-free run dropped %d packets", st.DroppedPackets)
			}

			est, err := s.Estimator()
			if err != nil {
				t.Fatal(err)
			}
			oracle := make([]*Estimator, len(o.shards))
			for i, sk := range o.shards {
				oracle[i] = sk.Estimator()
			}
			for f := FlowID(0); f < FlowID(tc.flows); f++ {
				if !est.Covered(f) {
					t.Fatalf("flow %d: not covered", f)
				}
				oe := oracle[o.route(f)]
				for _, m := range []Method{CSM, MLM} {
					if got, want := est.Estimate(f, m), oe.Estimate(f, m); got != want { // bit-identical
						t.Fatalf("flow %d %v: estimate %v, oracle %v", f, m, got, want)
					}
				}
			}
			if !tc.uniform {
				return
			}
			// A few flows share a counter with a neighbor (expected ~3 pairs
			// per shard at these parameters) and absorb ~x/k of noise; the
			// bulk of the population must sit right on the truth.
			want := float64(tc.packets) / float64(tc.flows)
			within := 0
			for f := FlowID(0); f < FlowID(tc.flows); f++ {
				if got := est.Estimate(f, CSM); math.Abs(got-want) < 0.1*want {
					within++
				}
			}
			if within < tc.flows*85/100 {
				t.Fatalf("only %d/%d flows within 10%% of truth", within, tc.flows)
			}
		})
	}
}

func TestShardedSetDistribution(t *testing.T) {
	s, err := NewSharded(2, shardedConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Ingester().ObserveBatch(cyclicFlows(20000, 300))
	s.Close()
	est, err := s.Estimator()
	if err != nil {
		t.Fatal(err)
	}
	_, narrow := est.EstimateWithInterval(5, 0.95)
	est.SetDistribution(300, 10000)
	_, wide := est.EstimateWithInterval(5, 0.95)
	if wide.Width() <= narrow.Width() {
		t.Fatal("SetDistribution did not widen intervals")
	}
}

// BenchmarkShardedObserve measures one-packet ObserveBatch calls from
// parallel producers, each on its own handle, under cache churn (8,192
// flows for 4,096 cache entries).
func BenchmarkShardedObserve(b *testing.B) {
	s, err := NewSharded(4, Config{
		Counters: 1 << 16, CacheEntries: 1 << 12, CacheCapacity: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := s.Ingester()
		var one [1]FlowID
		i := 0
		for pb.Next() {
			one[0] = FlowID(i & 8191)
			h.ObserveBatch(one[:])
			i++
		}
	})
	b.StopTimer()
	s.Close()
}
