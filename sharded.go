package caesar

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-sketch/caesar/internal/hashing"
)

// Sharded fans packet ingestion out over several independent CAESAR
// sketches, one worker goroutine per shard, with flows routed by hash so
// every flow lives in exactly one shard. This is the software analogue of
// replicating the measurement pipeline across switch ports: shards share
// nothing, so ingest scales with cores while every per-flow guarantee of a
// single sketch still holds within its shard.
//
// The total memory budget in Config is divided among shards: every shard
// gets Counters/n counters and CacheEntries/n cache entries, and the
// division remainders are spread one-per-shard across the first shards, so
// the whole configured budget is used (per-shard totals sum exactly to the
// configured Counters and CacheEntries).
//
// There are two ingest paths. Observe may be called from multiple
// goroutines concurrently; it is a compatibility wrapper over one internal
// Ingester handle, so concurrent callers serialize on that handle's mutex.
// For ingest that scales with producers, each producer goroutine should
// hold its own handle from Ingester(): handles buffer privately per shard
// and never contend with each other. Call Close (or CloseContext) to drain
// the workers (and every outstanding handle) before querying.
//
// # Overload and fault tolerance
//
// The ingest path degrades in bounded, accounted ways instead of failing
// silently (docs/ROBUSTNESS.md). The paper itself evaluates measurement
// under loss — RCS at empirical rates 2/3 and 9/10 because off-chip SRAM
// cannot keep line rate — and the same discipline applies here: every
// packet handed to an ingest entry point is either applied to a shard
// sketch or counted as dropped, never lost without a trace. The invariant
//
//	packets observed == NumPackets() + Stats().DroppedPackets
//
// holds exactly under queue overflow, worker panics, shutdown deadlines,
// and post-Close ingestion; the chaos suite (chaos_test.go) pins it under
// injected faults. Loss is surfaced as Stats().EffectiveLossRate and via
// ShardedEstimator.EffectiveLossRate, mirroring the paper's lossy-RCS
// evaluation where estimates cover the recorded fraction of each flow.
type Sharded struct {
	opts   ShardedOptions
	shards []*Sketch
	// queues are the per-shard hand-off channels, one buffered channel per
	// shard worker, shared by every producer handle.
	queues []chan shardBatch
	wg     sync.WaitGroup
	// router maps flows to shards: one seeded Mix64 and an exact
	// multiply-based modulo, with a block variant that pipelines the hashes
	// for a whole batch. Bit-identical to the historical
	// MixWithSeed(flow, seed) % n routing.
	router *hashing.ShardRouter

	// hasher derives flow IDs for the tuple-level entry points under
	// opts.FlowHash; the fast hash is keyed from Config.Seed.
	hasher tupleHasher

	// batchPool recycles full batches handed to the shard workers back to
	// the producers, so steady-state ingest allocates no buffers.
	batchPool sync.Pool

	mu      sync.Mutex
	handles []*Ingester // registered producer handles, guarded by mu
	closed  bool        // guarded by mu
	// sendWG counts in-flight full-batch sends that happen outside mu.
	// A dispatching handle registers the send while still holding mu; Close
	// waits for all registered senders before closing the queues, so a send
	// can never hit a closed channel (which would panic and silently drop
	// the batch).
	sendWG sync.WaitGroup

	// legacy is the handle behind the Observe compatibility wrapper.
	legacy *Ingester

	// abort is closed (once) when a deadline-bounded shutdown gives up on
	// stragglers: blocked senders fall out of their queue sends and workers
	// discard still-queued batches, each counting its packets as timed-out
	// drops, so CloseContext's wait is bounded by the one batch a worker
	// may already be applying.
	abort     chan struct{}
	abortOnce sync.Once

	// drops is the loss ledger: every packet that entered an ingest entry
	// point but will never reach a shard sketch is counted here, by cause.
	drops dropStats
	// shardDropped[i] counts dropped packets that were destined for shard i.
	// Padded: neighboring shards' workers bump adjacent counters under
	// overload, and 8-byte atomics sharing a line would ping-pong it.
	shardDropped []paddedCounter
	// shardDown[i] is 1 once shard i's worker has been quarantined.
	shardDown []atomic.Uint32

	// workerExited[i] is closed when shard i's worker goroutine returns; a
	// deadline-bounded shutdown uses it to tell which shards are safe to
	// flush and query (nil on snapshot-loaded instances, which never had
	// workers).
	workerExited []chan struct{}

	// panicReasons records the first recovered panic per shard, guarded by
	// panicMu.
	panicMu      sync.Mutex
	panicReasons map[int]string
}

// OverflowPolicy selects what a producer does when a shard's queue is full.
// The paper's own evaluation treats bounded, accounted loss as a first-class
// operating regime (RCS under 2/3 and 9/10 loss, Figure 7); Drop and Sample
// bring that regime to the ingest path, with every discarded packet counted
// so the estimator can report the effective loss rate.
type OverflowPolicy int

const (
	// Block waits for queue space: lossless, at the cost of backpressure
	// propagating to producers (the historical behavior, and the default).
	Block OverflowPolicy = iota
	// Drop discards the full batch when the shard queue has no space and
	// counts its packets in Stats.DroppedOverflow. Ingest latency stays
	// bounded; estimates cover the recorded fraction of each flow.
	Drop
	// Sample thins an overflowing batch to one packet in SampleRate before
	// enqueueing it (the enqueue of the thinned remainder may still block
	// briefly). The discarded packets are counted in Stats.DroppedSampled.
	Sample
)

// String names the policy for logs and reports.
func (p OverflowPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	case Sample:
		return "sample"
	default:
		return fmt.Sprintf("overflowpolicy(%d)", int(p))
	}
}

// Health is the coarse failure state of a Sharded sketch's worker pool.
// It only ever moves forward: Healthy → Degraded → Quarantined.
type Health int

const (
	// Healthy means every shard worker is live.
	Healthy Health = iota
	// Degraded means at least one shard has been quarantined after a worker
	// panic; surviving shards keep ingesting and answering queries, and the
	// quarantined shards' traffic is counted as dropped.
	Degraded
	// Quarantined means every shard worker has been quarantined; the sketch
	// can still Close and serve whatever state the shards held at the time
	// of their faults.
	Quarantined
)

// String names the health state for logs and reports.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// FlowHash selects the tuple → flow-ID derivation used by the tuple-level
// ingest entry points (ObservePacket, ObservePackets, HashTuple). Entry
// points that take pre-hashed FlowIDs (Observe, ObserveBatch) are
// unaffected: the choice only matters where the sketch itself turns packet
// headers into identifiers.
type FlowHash int

const (
	// FlowHashSHA1 (the default) derives flow IDs the way the paper does
	// (Section 6.1): SHA-1 over the 13-byte 5-tuple folded with APHash.
	// It is the reproduction-faithful choice — internal/expt and caesar-sim
	// always use it, so every committed result and golden fixture is pinned
	// to these IDs — but it costs ~180 ns/packet, roughly 7× the entire
	// rest of the ingest pipeline.
	FlowHashSHA1 FlowHash = iota
	// FlowHashFast derives flow IDs with hashing.FlowIDer: a keyed
	// SipHash-2-4 specialized to the 5-tuple, seeded from Config.Seed, at a
	// few ns/packet (with a block variant that pipelines independent hash
	// states). Statistically validated against SHA-1 — avalanche, bucket
	// uniformity, million-flow collision-freeness, and the abl-flowhash
	// accuracy experiment — but the IDs live in a different namespace:
	// never mix the two hashes within one measurement run.
	FlowHashFast
)

// String names the flow-hash selection for logs and flags.
func (f FlowHash) String() string {
	switch f {
	case FlowHashSHA1:
		return "sha1"
	case FlowHashFast:
		return "fast"
	default:
		return fmt.Sprintf("flowhash(%d)", int(f))
	}
}

// tupleHasher is the tuple → FlowID derivation a FlowHash selects, shared by
// Sharded and ShardedWindow so the scalar (HashTuple) and block
// (ObservePackets) paths of both make the same choice. The zero value is
// the SHA-1 derivation.
type tupleHasher struct {
	fast bool
	ider hashing.FlowIDer
}

// newTupleHasher keys the fast hash from seed; the SHA-1 derivation is
// unkeyed.
func newTupleHasher(f FlowHash, seed uint64) tupleHasher {
	return tupleHasher{fast: f == FlowHashFast, ider: hashing.NewFlowIDer(seed)}
}

// id derives one tuple's flow ID.
//
//caesar:hotpath per-packet flow-ID derivation on the tuple ingest paths
func (h *tupleHasher) id(t FiveTuple) FlowID {
	if h.fast {
		return h.ider.ID(t)
	}
	return t.ID()
}

// block appends the flow IDs of tuples to dst, pipelining independent hash
// states (FlowIDer.IDBlock) when fast.
//
//caesar:hotpath block flow-ID derivation on the fused tuple ingest paths
func (h *tupleHasher) block(dst []FlowID, tuples []FiveTuple) []FlowID {
	if h.fast {
		return h.ider.IDBlock(dst, tuples)
	}
	//caesar:ignore allocfree slices.Grow is a no-op once the caller's scratch has reached steady-state capacity
	dst = slices.Grow(dst, len(tuples))
	for _, t := range tuples {
		//caesar:ignore allocfree dst was pre-grown by len(tuples) just above; the append writes into reserved capacity
		dst = append(dst, t.ID())
	}
	return dst
}

// ShardedHooks are optional instrumentation and fault-injection points on
// the ingest path. Production deployments leave them zero; the chaos suite
// wires internal/faultinject's deterministic faults through them with no
// build tags. Hook functions must be safe for concurrent use: BeforeEnqueue
// runs on producer goroutines, OnWorkerBatch on shard workers.
type ShardedHooks struct {
	// BeforeEnqueue runs on the producer path before a full batch is
	// offered to its shard's queue. Returning false suppresses the batch,
	// whose packets are counted in Stats.DroppedInjected; sleeping here
	// models an ingest-path stall.
	BeforeEnqueue func(shard, packets int) bool
	// OnWorkerBatch runs on the shard worker immediately before a batch is
	// applied to the shard sketch. Sleeping models a slow consumer; a panic
	// exercises the quarantine machinery exactly like a real worker fault.
	OnWorkerBatch func(shard, packets int)
	// OnQuarantine fires once per shard, on whichever goroutine first
	// quarantines it (worker recover, flush, estimator, or the shutdown
	// watchdog), with the recorded reason. The self-healing service layer
	// uses it to log the fault and kick the supervisor without polling.
	// Must not block and must not call back into the Sharded.
	OnQuarantine func(shard int, reason string)
}

// ShardedOptions tunes the ingest machinery. The zero value selects the
// defaults, which match the previously hard-wired constants.
type ShardedOptions struct {
	// BatchSize is the number of flow IDs a producer accumulates per shard
	// before handing the batch to the shard worker. Larger batches amortize
	// the queue handoff further but hold packets longer before they become
	// visible to the shard. Default 256.
	BatchSize int
	// QueueDepth is the per-shard queue capacity in batches; once a shard
	// falls this far behind, OverflowPolicy decides what producers do.
	// Default 64.
	QueueDepth int
	// OverflowPolicy selects the full-queue behavior: Block (default,
	// lossless), Drop, or Sample.
	OverflowPolicy OverflowPolicy
	// SampleRate is N for the Sample policy: an overflowing batch keeps one
	// packet in N. Default 8; ignored by the other policies.
	SampleRate int
	// FlowHash selects the tuple → flow-ID derivation of the tuple-level
	// ingest entry points: FlowHashSHA1 (default, paper-faithful) or
	// FlowHashFast (keyed SipHash-2-4, seeded from Config.Seed). A runtime
	// choice, not persisted state: snapshots store pre-hashed FlowIDs, so a
	// restore must be given the same FlowHash its writer ingested with for
	// tuple-level queries to resolve the same flows.
	FlowHash FlowHash
	// Hooks installs fault-injection and instrumentation callbacks; the
	// zero value installs none.
	Hooks ShardedHooks
}

// Default ingest tuning, kept as named constants so the scaling benchmarks
// can reference the stock configuration.
const (
	DefaultShardBatchSize = 256
	// DefaultShardQueueDepth is the per-shard channel capacity in batches.
	// The queue-depth sweep (caesar-bench -perf-ingest, queue_depth_sweep in
	// BENCH_PR8.json) is flat from 16 to 256 batches within run-to-run noise.
	DefaultShardQueueDepth = 64
	// DefaultShardSampleRate is the Sample policy's keep ratio: 1 in 8.
	DefaultShardSampleRate = 8
)

func (o ShardedOptions) withDefaults() ShardedOptions {
	if o.BatchSize == 0 {
		o.BatchSize = DefaultShardBatchSize
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = DefaultShardQueueDepth
	}
	if o.SampleRate == 0 {
		o.SampleRate = DefaultShardSampleRate
	}
	return o
}

func (o ShardedOptions) validate() error {
	if o.BatchSize < 1 {
		return fmt.Errorf("caesar: ShardedOptions.BatchSize must be >= 1, got %d", o.BatchSize)
	}
	if o.QueueDepth < 1 {
		return fmt.Errorf("caesar: ShardedOptions.QueueDepth must be >= 1, got %d", o.QueueDepth)
	}
	if o.OverflowPolicy < Block || o.OverflowPolicy > Sample {
		return fmt.Errorf("caesar: unknown ShardedOptions.OverflowPolicy %d", o.OverflowPolicy)
	}
	if o.SampleRate < 1 {
		return fmt.Errorf("caesar: ShardedOptions.SampleRate must be >= 1, got %d", o.SampleRate)
	}
	if o.FlowHash < FlowHashSHA1 || o.FlowHash > FlowHashFast {
		return fmt.Errorf("caesar: unknown ShardedOptions.FlowHash %d", o.FlowHash)
	}
	return nil
}

type shardBatch []FlowID

// shardRouteSeed is the fixed seed of the flow → shard hash. It predates the
// ShardRouter; the router reproduces MixWithSeed(flow, shardRouteSeed) % n
// bit-for-bit, so snapshots and golden results are unaffected.
const shardRouteSeed = 0x5ad5ad

// paddedCounter is an atomic.Uint64 alone on its 64-byte cache line. The
// drop-ledger counters are bumped from producer goroutines, shard workers,
// and the shutdown path concurrently; as plain adjacent atomics, counters for
// unrelated causes (or neighboring shards) would share a line and ping-pong
// it between cores under overload — exactly when the ledger is hottest.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// Load returns the current count.
func (c *paddedCounter) Load() uint64 { return c.n.Load() }

// Store overwrites the count (snapshot restore only).
func (c *paddedCounter) Store(v uint64) { c.n.Store(v) }

// Add increments the count and returns the new value.
//
//caesar:hotpath ledger bump on every accounted drop
func (c *paddedCounter) Add(v uint64) uint64 { return c.n.Add(v) }

// dropStats is the loss ledger, partitioned by cause. Every field counts
// packets except batches, which counts whole batches discarded in one step.
// All fields are padded atomics: drops are recorded from producer goroutines,
// shard workers, and the shutdown path concurrently, and padding keeps one
// cause's traffic from invalidating another's cache line.
type dropStats struct {
	overflow   paddedCounter // Drop policy: batch rejected on a full queue
	sampled    paddedCounter // Sample policy: packets thinned on overflow
	quarantine paddedCounter // packets abandoned by or routed to a quarantined shard
	timeout    paddedCounter // CloseContext/FlushContext deadline casualties
	afterClose paddedCounter // Observe/ObserveBatch after Close (counted no-op)
	injected   paddedCounter // batches suppressed by a BeforeEnqueue hook
	batches    paddedCounter // whole batches dropped, all causes
}

// packets returns the total dropped-packet count across causes.
func (d *dropStats) packets() uint64 {
	return d.overflow.Load() + d.sampled.Load() + d.quarantine.Load() +
		d.timeout.Load() + d.afterClose.Load() + d.injected.Load()
}

// NewSharded builds n shards from a total-budget config with default ingest
// tuning. n = 0 selects GOMAXPROCS shards.
func NewSharded(n int, cfg Config) (*Sharded, error) {
	return NewShardedOptions(n, cfg, ShardedOptions{})
}

// NewShardedOptions builds n shards from a total-budget config with
// explicit ingest tuning. n = 0 selects GOMAXPROCS shards.
func NewShardedOptions(n int, cfg Config, opts ShardedOptions) (*Sharded, error) {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, fmt.Errorf("caesar: shard count must be >= 1, got %d", n)
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	counterBase, counterRem := cfg.Counters/n, cfg.Counters%n
	entryBase, entryRem := cfg.CacheEntries/n, cfg.CacheEntries%n
	if counterBase < 1 || entryBase < 1 {
		return nil, fmt.Errorf("caesar: budget too small for %d shards (counters=%d cacheEntries=%d)",
			n, cfg.Counters, cfg.CacheEntries)
	}
	s := &Sharded{
		opts:         opts,
		shards:       make([]*Sketch, n),
		router:       hashing.NewShardRouter(n, shardRouteSeed),
		hasher:       newTupleHasher(opts.FlowHash, cfg.Seed),
		queues:       make([]chan shardBatch, n),
		abort:        make(chan struct{}),
		shardDropped: make([]paddedCounter, n),
		shardDown:    make([]atomic.Uint32, n),
		workerExited: make([]chan struct{}, n),
		panicReasons: make(map[int]string),
	}
	for i := range s.workerExited {
		s.workerExited[i] = make(chan struct{})
	}
	for i := range s.shards {
		// Spread the division remainders across the first shards so no part
		// of the configured budget is silently dropped.
		per := cfg
		per.Counters = counterBase
		if i < counterRem {
			per.Counters++
		}
		per.CacheEntries = entryBase
		if i < entryRem {
			per.CacheEntries++
		}
		per.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		sk, err := New(per)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sk
		s.queues[i] = make(chan shardBatch, opts.QueueDepth)
	}
	for i := range s.shards {
		s.wg.Add(1)
		go s.worker(i)
	}
	s.legacy = s.Ingester()
	return s, nil
}

// worker consumes shard i's queue. A batch is applied under recover: a
// panicking shard is quarantined and the worker degrades into a counting
// drain, so producers blocked on its queue (and Close) never hang on a dead
// consumer and every abandoned packet is accounted.
func (s *Sharded) worker(i int) {
	defer s.wg.Done()
	//caesar:ignore atomicdiscipline worker i is the sole closer of its own exit latch; no other goroutine ever closes or sends on workerExited[i]
	defer close(s.workerExited[i])
	for batch := range s.queues[i] {
		if s.aborted() {
			// Deadline-bounded shutdown gave up on queued work: count it
			// instead of applying it.
			s.dropBatch(i, len(batch), &s.drops.timeout)
			s.putBatch(batch)
			continue
		}
		if s.applyBatch(i, batch) {
			continue
		}
		// The batch panicked. Quarantine this shard and drain the rest of
		// its queue as counted drops until Close closes the channel.
		for b := range s.queues[i] {
			s.dropBatch(i, len(b), &s.drops.quarantine)
			s.putBatch(b)
		}
		return
	}
}

// applyBatch runs one batch through shard i under recover, reporting
// whether the shard survived. On a panic, the packets of the batch that
// were not applied before the fault are counted as quarantine drops, so the
// observed == counted + dropped invariant holds at packet granularity even
// for a fault in the middle of a batch.
func (s *Sharded) applyBatch(i int, batch shardBatch) (ok bool) {
	sk := s.shards[i]
	before := sk.NumPackets()
	defer func() {
		if r := recover(); r != nil {
			applied := sk.NumPackets() - before
			short := uint64(len(batch)) - applied
			s.drops.quarantine.Add(short)
			s.shardDropped[i].Add(short)
			s.drops.batches.Add(1)
			s.quarantineShard(i, fmt.Sprintf("%v", r))
			ok = false
		}
	}()
	if hook := s.opts.Hooks.OnWorkerBatch; hook != nil {
		hook(i, len(batch))
	}
	sk.ObserveBatch(batch)
	s.putBatch(batch)
	return true
}

// quarantineShard marks shard i down and records the first panic reason.
func (s *Sharded) quarantineShard(i int, reason string) {
	if s.shardDown[i].CompareAndSwap(0, 1) {
		s.panicMu.Lock()
		s.panicReasons[i] = reason
		s.panicMu.Unlock()
		if hook := s.opts.Hooks.OnQuarantine; hook != nil {
			hook(i, reason)
		}
	}
}

// ShardPanic returns the recovered panic value that quarantined shard i,
// and whether that shard has been quarantined at all.
func (s *Sharded) ShardPanic(i int) (string, bool) {
	if i < 0 || i >= len(s.shardDown) || s.shardDown[i].Load() == 0 {
		return "", false
	}
	s.panicMu.Lock()
	defer s.panicMu.Unlock()
	return s.panicReasons[i], true
}

// Health reports the worker pool's failure state. A freshly built (or
// snapshot-loaded) sketch is Healthy; the state only moves forward.
func (s *Sharded) Health() Health {
	down := s.quarantinedShards()
	switch {
	case down == 0:
		return Healthy
	case down < len(s.shards):
		return Degraded
	default:
		return Quarantined
	}
}

// quarantinedShards counts shards whose worker has been quarantined.
func (s *Sharded) quarantinedShards() int {
	n := 0
	for i := range s.shardDown {
		n += int(s.shardDown[i].Load())
	}
	return n
}

// aborted reports whether a deadline-bounded shutdown has tripped the abort
// latch.
func (s *Sharded) aborted() bool {
	select {
	case <-s.abort:
		return true
	default:
		return false
	}
}

// triggerAbort trips the abort latch exactly once.
func (s *Sharded) triggerAbort() {
	s.abortOnce.Do(func() { close(s.abort) })
}

// dropBatch accounts one whole batch of n packets destined for shard i as
// dropped for the given cause.
func (s *Sharded) dropBatch(i, n int, cause *paddedCounter) {
	cause.Add(uint64(n))
	s.shardDropped[i].Add(uint64(n))
	s.drops.batches.Add(1)
}

// getBatch returns an empty batch with BatchSize capacity, recycled from
// the pool when one is available.
func (s *Sharded) getBatch() shardBatch {
	if bp, _ := s.batchPool.Get().(*shardBatch); bp != nil {
		return (*bp)[:0]
	}
	//caesar:ignore allocfree cold fallback when the pool is empty; the steady state recycles batches through putBatch
	return make(shardBatch, 0, s.opts.BatchSize)
}

// putBatch returns a consumed batch to the pool.
func (s *Sharded) putBatch(b shardBatch) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	//caesar:ignore allocfree stores a *shardBatch pointer in the iface data word; pointer-to-any conversion does not heap-allocate
	s.batchPool.Put(&b)
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Options returns the (defaulted) ingest tuning.
func (s *Sharded) Options() ShardedOptions { return s.opts }

// ShardFor returns the index of the shard that owns a flow.
//
//caesar:hotpath routes every packet on the scalar Observe path
func (s *Sharded) ShardFor(flow FlowID) int {
	return s.router.Route(flow)
}

// Observe routes one packet to its shard. Safe for concurrent use; it is a
// thin compatibility wrapper over an internal Ingester handle, so all
// callers serialize on that handle's mutex. Producers that need ingest to
// scale with cores should hold their own handle from Ingester(). After
// Close, Observe is a counted no-op (see Ingester.Observe).
func (s *Sharded) Observe(flow FlowID) { s.legacy.Observe(flow) }

// ObserveBatch routes a batch of packets to their shards in one call,
// amortizing the route-and-buffer cost. Safe for concurrent use; same
// serialization and after-Close semantics as Observe.
func (s *Sharded) ObserveBatch(flows []FlowID) { s.legacy.ObserveBatch(flows) }

// HashTuple derives the packet's flow ID under this sketch's configured
// FlowHash: the paper's SHA-1 ⊕ APHash by default, the keyed fast hash when
// the options selected FlowHashFast. Queries against tuple-level ingest must
// derive their flow IDs through this method (or an identically configured
// hasher) — the two hashes produce disjoint ID namespaces.
//
//caesar:hotpath per-packet flow-ID derivation on the tuple ingest path
func (s *Sharded) HashTuple(t FiveTuple) FlowID { return s.hasher.id(t) }

// ObservePacket parses a 5-tuple and routes one packet of its flow, deriving
// the flow ID with the configured FlowHash.
func (s *Sharded) ObservePacket(t FiveTuple) { s.Observe(s.HashTuple(t)) }

// ObservePackets routes a batch of packets, given as raw 5-tuples, to their
// shards through the shared legacy handle — the fused block ingest path
// (hash block → route block → per-shard buffers) under one lock
// acquisition. Producers that need ingest to scale should call
// Ingester().ObservePackets on their own handles.
func (s *Sharded) ObservePackets(tuples []FiveTuple) { s.legacy.ObservePackets(tuples) }

// Ingester returns a new per-producer ingest handle. Handles own private
// per-shard fill buffers, so producers holding distinct handles never
// contend with each other on the packet path — the handle's mutex is
// uncontended except at the Close rendezvous. Close drains every handle's
// buffered packets. Minting a new handle from a closed Sharded is a
// programming error and panics; observing through an existing handle after
// Close is a counted no-op.
func (s *Sharded) Ingester() *Ingester {
	h := &Ingester{s: s}
	h.batches = make([]shardBatch, len(s.shards)) //caesar:ignore lockdiscipline h is under construction and not yet shared with any goroutine
	for i := range h.batches {
		h.batches[i] = s.getBatch() //caesar:ignore lockdiscipline h is under construction and not yet shared with any goroutine
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("caesar: Ingester after Close")
	}
	s.handles = append(s.handles, h)
	return h
}

// Ingester is a per-producer ingest handle for a Sharded sketch. It is safe
// for concurrent use, but its point is the opposite: give each producer
// goroutine its own handle and the packet path never contends — Observe is
// a buffered append behind a mutex no other producer touches, and only a
// full batch (every BatchSize packets per shard) reaches shared state.
type Ingester struct {
	s *Sharded

	mu       sync.Mutex
	batches  []shardBatch // per-shard private fill buffers, guarded by mu
	routeBuf []uint32     // ObserveBatch block-routing scratch, guarded by mu
	idBuf    []FlowID     // ObservePackets block-hashing scratch, guarded by mu
	closed   bool         // guarded by mu
}

// Observe routes one packet to its shard's buffer, dispatching the buffer
// to the shard worker when it fills.
//
// After Close, Observe is a counted no-op: the packet is discarded and
// accounted in Stats.DroppedAfterClose, so racing producers that lose the
// Close rendezvous keep the observed == counted + dropped invariant instead
// of crashing the process. (Before this contract was pinned, late observers
// panicked; the counted no-op is strictly more robust and equally loud in
// the accounting.)
func (h *Ingester) Observe(flow FlowID) {
	i := h.s.ShardFor(flow)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.s.dropAfterClose(i, 1)
		return
	}
	//caesar:ignore allocfree per-shard batches are minted with BatchSize capacity and swapped out exactly at len==cap, so this append never grows
	b := append(h.batches[i], flow)
	if len(b) == cap(b) {
		h.batches[i] = h.s.getBatch()
		h.dispatch(i, b)
	} else {
		h.batches[i] = b
	}
	h.mu.Unlock()
}

// ObserveBatch routes a batch of packets to their shards under a single
// lock acquisition. After Close it is a counted no-op, like Observe.
//
// The shard of every flow is computed first as one block (RouteBlock): the
// routing hashes are data-independent, so the tight hash loop pipelines where
// the scalar hash→buffer sequence would serialize on each hash's latency.
// Routing is bit-identical to calling ShardFor per flow.
//
//caesar:hotpath the bulk ingest entry point
func (h *Ingester) ObserveBatch(flows []FlowID) {
	if len(flows) == 0 {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		for _, flow := range flows {
			h.s.dropAfterClose(h.s.ShardFor(flow), 1)
		}
		return
	}
	// The route-and-buffer tail below is kept as a full body here and in
	// ObservePackets (not factored into a helper) so the lock acquisition
	// and every guarded-field access sit in one function — the same
	// two-full-bodies discipline as core's Add/addFrom.
	h.routeBuf = h.s.router.RouteBlock(flows, h.routeBuf[:0])
	for j, flow := range flows {
		i := int(h.routeBuf[j])
		//caesar:ignore allocfree per-shard batches are minted with BatchSize capacity and swapped out exactly at len==cap, so this append never grows
		b := append(h.batches[i], flow)
		if len(b) == cap(b) {
			h.batches[i] = h.s.getBatch()
			h.dispatch(i, b)
		} else {
			h.batches[i] = b
		}
	}
	h.mu.Unlock()
}

// ObservePackets is the fused tuple-level block ingest path: one call takes
// a block of raw 5-tuples through flow-ID hashing (the configured FlowHash;
// FlowIDer.IDBlock pipelines independent hash states when fast), block shard
// routing, and the per-shard buffer appends — all under a single lock
// acquisition, with no per-packet call anywhere. After Close it is a counted
// no-op, like Observe.
//
//caesar:hotpath the fused pcap.ReadBlock → IDBlock → RouteBlock → buffers ingest path
func (h *Ingester) ObservePackets(tuples []FiveTuple) {
	if len(tuples) == 0 {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		for _, t := range tuples {
			h.s.dropAfterClose(h.s.ShardFor(h.s.HashTuple(t)), 1)
		}
		return
	}
	h.idBuf = h.s.hasher.block(h.idBuf[:0], tuples)
	h.routeBuf = h.s.router.RouteBlock(h.idBuf, h.routeBuf[:0])
	for j, flow := range h.idBuf {
		i := int(h.routeBuf[j])
		//caesar:ignore allocfree per-shard batches are minted with BatchSize capacity and swapped out exactly at len==cap, so this append never grows
		b := append(h.batches[i], flow)
		if len(b) == cap(b) {
			h.batches[i] = h.s.getBatch()
			h.dispatch(i, b)
		} else {
			h.batches[i] = b
		}
	}
	h.mu.Unlock()
}

// dropAfterClose accounts one post-Close packet destined for shard i.
func (s *Sharded) dropAfterClose(i, n int) {
	s.drops.afterClose.Add(uint64(n))
	s.shardDropped[i].Add(uint64(n))
}

// ObservePacket parses a 5-tuple and routes one packet of its flow, deriving
// the flow ID with the configured FlowHash.
func (h *Ingester) ObservePacket(t FiveTuple) { h.Observe(h.s.HashTuple(t)) }

// Flush pushes the handle's partially-filled buffers to the shard workers
// without closing the handle, bounding how long a trickle of packets can
// sit invisible in a producer's buffers. The pushes respect the overflow
// policy, exactly like a full-batch dispatch. No-op after Close.
func (h *Ingester) Flush() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for i, b := range h.batches {
		if len(b) > 0 {
			h.batches[i] = h.s.getBatch()
			h.dispatch(i, b)
		}
	}
}

// FlushContext is Flush with a deadline: each partially-filled buffer is
// offered to its shard queue until ctx expires, after which the remaining
// buffers are counted in Stats.DroppedTimeout — never silently lost — and
// ctx's error is returned. A nil error means every buffered packet reached
// its queue. No-op (nil) after Close.
func (h *Ingester) FlushContext(ctx context.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	var err error
	for i, b := range h.batches {
		if len(b) == 0 {
			continue
		}
		h.batches[i] = h.s.getBatch()
		if err != nil {
			// The deadline already fired: count the rest without re-waiting.
			h.s.dropBatch(i, len(b), &h.s.drops.timeout)
			h.s.putBatch(b)
			continue
		}
		select {
		case h.s.queues[i] <- b:
		case <-ctx.Done():
			h.s.dropBatch(i, len(b), &h.s.drops.timeout)
			h.s.putBatch(b)
			err = ctx.Err()
		}
	}
	return err
}

// dispatch hands one batch to shard i's worker, applying the overflow
// policy. Called with h.mu held, which is what makes it safe against Close:
// Close cannot finish draining this handle (and therefore cannot close the
// queues) until h.mu is released, so the send always lands on an open
// channel. The sendWG registration additionally orders the send against
// Close for any caller that dispatches outside a drain-visible lock.
//
//caesar:hotpath hands off one full batch per BatchSize packets
func (h *Ingester) dispatch(i int, b shardBatch) {
	s := h.s
	s.mu.Lock()
	s.sendWG.Add(1)
	s.mu.Unlock()
	s.enqueue(i, b)
	s.sendWG.Done()
}

// enqueue offers one batch to shard i's queue under the overflow policy.
// Hook suppression and policy drops are counted; a blocking send can be cut
// short only by the shutdown abort latch, in which case the batch counts as
// a timeout drop.
func (s *Sharded) enqueue(i int, b shardBatch) {
	if hook := s.opts.Hooks.BeforeEnqueue; hook != nil && !hook(i, len(b)) {
		s.dropBatch(i, len(b), &s.drops.injected)
		s.putBatch(b)
		return
	}
	switch s.opts.OverflowPolicy {
	case Drop:
		select {
		case s.queues[i] <- b:
		default:
			s.dropBatch(i, len(b), &s.drops.overflow)
			s.putBatch(b)
		}
	case Sample:
		select {
		case s.queues[i] <- b:
			return
		default:
		}
		s.blockingSend(i, s.thinBatch(i, b))
	default: // Block
		s.blockingSend(i, b)
	}
}

// thinBatch applies the Sample policy to an overflowing batch in place:
// every SampleRate-th packet is kept (the write index never catches the read
// index) and the discarded remainder is accounted to shard i.
func (s *Sharded) thinBatch(i int, b shardBatch) shardBatch {
	kept := b[:0]
	for j := 0; j < len(b); j += s.opts.SampleRate {
		//caesar:ignore allocfree kept reuses b's backing array and its write index never passes the read index, so this append never grows
		kept = append(kept, b[j])
	}
	thinned := len(b) - len(kept)
	s.drops.sampled.Add(uint64(thinned))
	s.shardDropped[i].Add(uint64(thinned))
	return kept
}

// blockingSend delivers a batch with backpressure; only the shutdown abort
// latch can cut it short, counting the batch as timed-out drops.
func (s *Sharded) blockingSend(i int, b shardBatch) {
	select {
	case s.queues[i] <- b:
	case <-s.abort:
		s.dropBatch(i, len(b), &s.drops.timeout)
		s.putBatch(b)
	}
}

// drain marks the handle closed and pushes its buffered packets to the
// shard workers, waiting for queue space (shutdown wants maximum fidelity,
// so the overflow policy does not apply here). The pushes give up when ctx
// expires or the abort latch trips, counting the remaining buffers as
// timed-out drops. Called only by the Close path, before the queues close;
// reports whether any buffer was dropped on the deadline.
func (h *Ingester) drain(ctx context.Context) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false
	}
	h.closed = true
	hit := false
	for i, b := range h.batches {
		h.batches[i] = nil
		if len(b) == 0 {
			continue
		}
		if hit {
			// The deadline already fired: count without re-waiting.
			h.s.dropBatch(i, len(b), &h.s.drops.timeout)
			continue
		}
		select {
		case h.s.queues[i] <- b:
		case <-ctx.Done():
			h.s.dropBatch(i, len(b), &h.s.drops.timeout)
			hit = true
		case <-h.s.abort:
			h.s.dropBatch(i, len(b), &h.s.drops.timeout)
			hit = true
		}
	}
	return hit
}

// Close drains every registered Ingester handle (the Observe compatibility
// handle included), stops the workers, and flushes every shard's cache to
// its counters. Idempotent. Close never gives up on queued work: with the
// Block policy it waits for stalled consumers indefinitely — use
// CloseContext to bound shutdown.
func (s *Sharded) Close() {
	// Background contexts never expire, so the deadline machinery is inert
	// and the error is structurally nil.
	_ = s.closeWith(context.Background())
}

// CloseContext is Close with a deadline. When ctx expires before the drain
// completes, the abort latch trips: blocked senders give up, workers
// discard still-queued batches, and every abandoned packet is counted in
// Stats.DroppedTimeout — so a stalled consumer cannot hang shutdown, and
// nothing is silently lost. A worker wedged mid-batch (a goroutine cannot
// be killed) is abandoned after a short grace and its shard quarantined;
// when it eventually finishes, its applied packets surface in NumPackets
// and the rest of its queue drains as counted drops, restoring the exact
// accounting invariant. Returns nil when everything drained in time, or
// ctx's error when the deadline cut the drain short; the sketch is closed
// either way, and queries answer from the shards whose workers finished.
// Idempotent: later calls return nil.
func (s *Sharded) CloseContext(ctx context.Context) error {
	return s.closeWith(ctx)
}

func (s *Sharded) closeWith(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	handles := s.handles
	s.handles = nil
	s.mu.Unlock()
	if ctx.Done() != nil {
		// Watchdog: trip the abort latch the moment the deadline fires, for
		// the whole duration of the close. This is what keeps the handle
		// drains below deadlock-free — a producer blocked inside dispatch
		// holds its handle mutex while waiting for queue space, so the drain
		// cannot take that mutex until the abort releases the blocked send.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				s.triggerAbort()
			case <-watchDone:
			}
		}()
	}
	timedOut := false
	// Drain the handles: each drain takes the handle mutex, so it serializes
	// after any in-flight Observe/dispatch on that handle, and marks the
	// handle closed so later observers get the documented counted no-op.
	for _, h := range handles {
		if h.drain(ctx) {
			timedOut = true
		}
	}
	// Belt and braces: wait for any sends registered outside a handle drain
	// before closing the queues (see Ingester.dispatch). This wait is never
	// abandoned — a live sender racing a closed queue would panic — but the
	// abort guarantees it is short.
	if !s.waitFull(ctx, &s.sendWG) {
		timedOut = true
	}
	for _, q := range s.queues {
		//caesar:ignore atomicdiscipline closeWith runs once (guarded by the closed flag under mu) and waits on sendWG above, so no sender can race these closes
		close(q)
	}
	if !s.waitOrAbort(ctx, &s.wg) {
		timedOut = true
	}
	for i := range s.shards {
		if s.workerDone(i) {
			s.safeFlush(i)
		} else {
			// The deadline abandoned this worker mid-batch (wedged consumer).
			// Its shard cannot be flushed or queried safely while the worker
			// may still touch it, so it joins the quarantine; when the worker
			// eventually finishes, its applied packets surface in NumPackets
			// and the remaining queue drains as counted drops.
			s.quarantineShard(i, "shutdown deadline exceeded with the worker still running")
		}
	}
	if s.aborted() && ctx.Err() != nil {
		// The watchdog tripped the abort mid-close: blocked senders counted
		// their batches as timeout drops even if every explicit wait above
		// happened to finish — report the cut-short close either way.
		timedOut = true
	}
	if timedOut {
		return fmt.Errorf("caesar: close cut short by deadline, timed-out packets counted as dropped: %w", ctx.Err())
	}
	return nil
}

// workerDone reports whether shard i's worker goroutine has returned (true
// on snapshot-loaded instances, which never had workers).
func (s *Sharded) workerDone(i int) bool {
	if s.workerExited == nil {
		return true
	}
	select {
	case <-s.workerExited[i]:
		return true
	default:
		return false
	}
}

// waitFull waits for wg to completion, tripping the abort latch when ctx
// expires so blocked senders fall out of their queue sends and the wait
// finishes promptly. Used for sendWG, which must be fully drained before the
// queues close (an abandoned sender could panic on a closed channel); a
// registered sender can only ever block on a select that includes the abort,
// so the post-abort wait is bounded. Reports whether the wait finished
// before the deadline.
func (s *Sharded) waitFull(ctx context.Context, wg *sync.WaitGroup) bool {
	if ctx.Done() == nil {
		// Plain Close: nothing can expire, skip the watcher goroutine.
		wg.Wait()
		return true
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		s.triggerAbort()
		<-done
		return false
	}
}

// waitOrAbort waits for the worker pool; if ctx expires first it trips the
// abort latch — turning workers into counting drains — grants a short grace
// for anything not truly wedged, and then abandons the wait: a consumer
// wedged mid-batch cannot hang a deadline-bounded shutdown (its shard is
// quarantined instead). Reports whether the wait completed.
func (s *Sharded) waitOrAbort(ctx context.Context, wg *sync.WaitGroup) bool {
	if ctx.Done() == nil {
		// Plain Close: nothing can expire, skip the watcher goroutine.
		wg.Wait()
		return true
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		s.triggerAbort()
		select {
		case <-done:
		case <-time.After(10 * time.Millisecond):
		}
		return false
	}
}

// safeFlush flushes shard i's cache under recover: a shard whose state was
// torn by a worker fault must not take down the shutdown of the survivors.
// A panicking flush quarantines the shard (if the worker fault had not
// already).
func (s *Sharded) safeFlush(i int) {
	defer func() {
		if r := recover(); r != nil {
			s.quarantineShard(i, fmt.Sprintf("flush: %v", r))
		}
	}()
	s.shards[i].Flush()
}

// NumPackets returns the total packets observed across shards. Call after
// Close for an exact figure.
func (s *Sharded) NumPackets() uint64 {
	var n uint64
	for _, sk := range s.shards {
		n += sk.NumPackets()
	}
	return n
}

// DroppedPackets returns the total packets counted as dropped across all
// causes (see the Stats Dropped* fields for the partition).
func (s *Sharded) DroppedPackets() uint64 { return s.drops.packets() }

// ShardDropped returns the dropped-packet count attributed to one shard.
func (s *Sharded) ShardDropped(i int) uint64 {
	if i < 0 || i >= len(s.shardDropped) {
		return 0
	}
	return s.shardDropped[i].Load()
}

// effectiveLossRate returns dropped / (delivered + dropped), the ingest
// path's analogue of the paper's RCS loss rate.
func (s *Sharded) effectiveLossRate() float64 {
	dropped := float64(s.drops.packets())
	if dropped <= 0 {
		return 0
	}
	return dropped / (dropped + float64(s.NumPackets()))
}

// Stats aggregates the shards' observability counters and the loss ledger.
func (s *Sharded) Stats() Stats {
	var agg Stats
	for _, sk := range s.shards {
		st := sk.Stats()
		agg.Packets += st.Packets
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		agg.OverflowEvictions += st.OverflowEvictions
		agg.PressureEvictions += st.PressureEvictions
		agg.FlushEvictions += st.FlushEvictions
		agg.SRAMWrites += st.SRAMWrites
		agg.CacheKB += st.CacheKB
		agg.SRAMKB += st.SRAMKB
	}
	agg.DroppedOverflow = s.drops.overflow.Load()
	agg.DroppedSampled = s.drops.sampled.Load()
	agg.DroppedQuarantine = s.drops.quarantine.Load()
	agg.DroppedTimeout = s.drops.timeout.Load()
	agg.DroppedAfterClose = s.drops.afterClose.Load()
	agg.DroppedInjected = s.drops.injected.Load()
	agg.DroppedPackets = agg.DroppedOverflow + agg.DroppedSampled +
		agg.DroppedQuarantine + agg.DroppedTimeout + agg.DroppedAfterClose +
		agg.DroppedInjected
	agg.DroppedBatches = s.drops.batches.Load()
	agg.QuarantinedShards = s.quarantinedShards()
	agg.Health = s.Health()
	if agg.DroppedPackets > 0 {
		agg.EffectiveLossRate = float64(agg.DroppedPackets) /
			(float64(agg.DroppedPackets) + float64(agg.Packets))
	}
	return agg
}

// Estimator returns the query view. It requires Close to have been called:
// querying while workers are still draining would race with ingestion.
// Quarantined shards answer from their last consistent state; a shard whose
// state is unrecoverable is excluded (its flows estimate 0, and Covered
// reports false for them).
func (s *Sharded) Estimator() (*ShardedEstimator, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		return nil, fmt.Errorf("caesar: Estimator before Close; call Close to drain ingestion first")
	}
	ests := make([]*Estimator, len(s.shards))
	for i, sk := range s.shards {
		ests[i] = s.safeEstimator(i, sk)
	}
	return &ShardedEstimator{owner: s, ests: ests}, nil
}

// safeEstimator builds shard i's query view under recover: a shard whose
// state was torn by a worker fault yields a nil view instead of taking the
// whole query phase down.
func (s *Sharded) safeEstimator(i int, sk *Sketch) (est *Estimator) {
	if !s.workerDone(i) {
		// A deadline-abandoned worker may still be applying a batch; its
		// shard was quarantined by the timed-out close and cannot be read
		// until the worker exits.
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			s.quarantineShard(i, fmt.Sprintf("estimator: %v", r))
			est = nil
		}
	}()
	return sk.Estimator()
}

// ShardedEstimator answers queries by routing each flow to its owning
// shard's estimator.
type ShardedEstimator struct {
	owner *Sharded
	ests  []*Estimator

	// Bulk-query scratch (EstimateMany/QueryAll): the per-shard grouping is
	// rebuilt on every call but the backing slices are kept, so repeated
	// whole-trace queries allocate nothing per flow. Not guarded: the
	// estimator, like the per-shard ones, is not safe for concurrent use
	// from multiple goroutines (QueryAll parallelizes internally).
	grpOff   []int
	grpCur   []int
	grpFlows []FlowID
	grpPos   []int32
	grpVals  []float64
}

// Covered reports whether the flow's owning shard produced a query view.
// It is false only for flows owned by a quarantined shard whose state was
// unrecoverable; their Estimate is 0.
func (e *ShardedEstimator) Covered(flow FlowID) bool {
	return e.ests[e.owner.ShardFor(flow)] != nil
}

// Estimate returns the flow's estimated size. Under loss (Drop/Sample
// policies, quarantined shards, deadline drops) the estimate covers the
// recorded fraction of the flow, exactly like the paper's lossy RCS; use
// EstimateLossAdjusted for the loss-corrected figure.
func (e *ShardedEstimator) Estimate(flow FlowID, m Method) float64 {
	est := e.ests[e.owner.ShardFor(flow)]
	if est == nil {
		return 0
	}
	return est.Estimate(flow, m)
}

// EffectiveLossRate returns dropped / (delivered + dropped) over the whole
// sketch — the measured analogue of the paper's assumed RCS loss rates (2/3
// and 9/10 in Figure 7). Zero for a lossless run.
func (e *ShardedEstimator) EffectiveLossRate() float64 {
	return e.owner.effectiveLossRate()
}

// EstimateLossAdjusted scales Estimate by 1/(1-EffectiveLossRate): under
// uniform random loss the recorded fraction of every flow is (1-ρ) in
// expectation, so the scaled estimate is unbiased for the flow's true size
// (variance grows with ρ, as in Figure 7). Falls back to the raw estimate
// when the loss rate is 0, and returns 0 when everything was dropped.
func (e *ShardedEstimator) EstimateLossAdjusted(flow FlowID, m Method) float64 {
	rho := e.owner.effectiveLossRate()
	if rho <= 0 {
		return e.Estimate(flow, m)
	}
	if rho >= 1 {
		return 0
	}
	return e.Estimate(flow, m) / (1 - rho)
}

// EstimateWithInterval returns the CSM estimate and confidence interval.
// Flows owned by an unrecoverable quarantined shard return (0, zero
// interval); see Covered.
func (e *ShardedEstimator) EstimateWithInterval(flow FlowID, alpha float64) (float64, Interval) {
	est := e.ests[e.owner.ShardFor(flow)]
	if est == nil {
		return 0, Interval{}
	}
	return est.EstimateWithInterval(flow, alpha)
}

// SetDistribution forwards flow-population knowledge to every shard,
// scaling Q by the shard count (flows split evenly in expectation).
func (e *ShardedEstimator) SetDistribution(q float64, sizeSecondMoment float64) {
	per := q / float64(len(e.ests))
	for _, est := range e.ests {
		if est != nil {
			est.SetDistribution(per, sizeSecondMoment)
		}
	}
}
