package caesar

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/caesar-sketch/caesar/internal/epoch"
	"github.com/caesar-sketch/caesar/internal/stats"
)

// ShardedWindow composes the two production layers this repository grew
// separately — the overload-hardened parallel ingest plane (Sharded) and
// the sliding epoch window (Window) — into one continuously-queryable
// measurement surface: producers ingest at line rate through per-producer
// handles while queries answer from the sealed epochs, and Rotate moves
// packets from one side to the other without stopping either.
//
// # Epoch rotation and the seal barrier
//
// Each epoch is a complete Sharded shard set (workers, queues, loss
// ledger). Rotation is double-buffered:
//
//  1. The next epoch's shard set is built while the current one keeps
//     ingesting — producers never wait on construction.
//  2. Every WindowIngester handle is swapped onto the next epoch. The swap
//     holds each handle's mutex just long enough to exchange a pointer, so
//     a producer stalls for at most one in-flight Observe.
//  3. The seal barrier: the old epoch is closed, which drains every one of
//     its Ingester handles (including partially-filled producer buffers),
//     waits for its shard workers, and flushes every shard's cache to its
//     counters — while producers are already ingesting into the next
//     epoch.
//  4. The sealed epoch joins the query ring as a frozen ShardedEstimator;
//     the oldest sealed epoch is retired once the ring holds `epochs`.
//
// Because the seal reuses Sharded's shutdown machinery, every packet that
// entered a handle is either applied to the sealed epoch's counters or
// counted in its drop ledger, and the window-wide invariant
//
//	packets observed == NumPackets() + DroppedPackets()
//
// holds exactly after Close, across any number of rotations and epoch
// retirements (retired epochs fold their totals into cumulative counters
// before leaving the ring). The chaos suite pins this under concurrent
// multi-handle ingest and worker panics injected mid-seal.
//
// # Concurrency contract
//
// Observe/ObserveBatch on distinct WindowIngester handles never contend.
// Rotate, Close, and Ingester minting serialize with each other. Queries
// (Estimate*, EstimateMany, QueryAll, and EpochView queries) are safe to
// call from any goroutine at any time — including during rotation — and
// serialize internally on one query mutex, because the per-shard
// estimators reuse scratch buffers. Sealed epochs are immutable, so a
// query never races ingest.
type ShardedWindow struct {
	cfg     Config
	nshards int
	opts    ShardedOptions

	// hasher derives flow IDs for the tuple ingest paths under
	// opts.FlowHash. The fast hash is keyed from the *base* cfg.Seed, not the
	// per-epoch strided seeds, so a flow keeps one ID for the life of the
	// window — windowed estimates sum the same FlowID across sealed epochs,
	// which only works if rotation never re-keys the tuple hash.
	hasher tupleHasher

	// mu serializes lifecycle transitions: Rotate, Close, and handle
	// minting. The packet path never takes it.
	mu      sync.Mutex
	handles []*WindowIngester
	closed  bool

	// ringMu guards the sealed-epoch ring and the retired-epoch
	// accumulators. Rotate takes the write side only for the final ring
	// push; queries take the read side briefly to snapshot the ring.
	ringMu sync.RWMutex
	lc     *epoch.Lifecycle[*Sharded, *windowEpoch]

	// Cumulative totals of epochs retired from the ring, so the ledger
	// invariant spans the whole run, not just the epochs still queryable.
	retiredPackets uint64
	retiredDropped uint64
	retiredStats   Stats

	// queryMu serializes queries: sealed shard estimators reuse scratch
	// buffers, so concurrent queries must not interleave on them.
	queryMu      sync.Mutex
	epochScratch []*windowEpoch
	sumScratch   []float64

	// legacy backs the Observe compatibility wrappers.
	legacy *WindowIngester
}

// windowEpoch is one sealed epoch: the closed shard set (which owns the
// counters and the loss ledger) and its frozen query view.
type windowEpoch struct {
	rotation int // 0-based epoch ordinal since window construction
	sh       *Sharded
	est      *ShardedEstimator
}

// NewShardedWindow builds a sliding window of `epochs` sealed epochs over
// nshards-way parallel ingest with default ingest tuning. nshards = 0
// selects GOMAXPROCS shards. cfg is the per-epoch budget: each live epoch
// owns a full shard set, and rotation double-buffers two of them briefly.
func NewShardedWindow(epochs, nshards int, cfg Config) (*ShardedWindow, error) {
	return NewShardedWindowOptions(epochs, nshards, cfg, ShardedOptions{})
}

// NewShardedWindowOptions is NewShardedWindow with explicit ingest tuning;
// the options (overflow policy, batch size, hooks) apply to every epoch's
// shard set.
func NewShardedWindowOptions(epochs, nshards int, cfg Config, opts ShardedOptions) (*ShardedWindow, error) {
	if epochs < 1 {
		return nil, fmt.Errorf("caesar: sharded window needs >= 1 epoch, got %d", epochs)
	}
	w := &ShardedWindow{cfg: cfg, nshards: nshards, opts: opts, hasher: newTupleHasher(opts.FlowHash, cfg.Seed)}
	first, err := w.newEpochSharded(0)
	if err != nil {
		return nil, err
	}
	w.nshards = first.NumShards() // pin the GOMAXPROCS default for later epochs
	lc, err := epoch.NewLifecycle[*Sharded, *windowEpoch](epochs, first)
	if err != nil {
		first.Close()
		return nil, err
	}
	w.lc = lc
	w.legacy = w.Ingester()
	return w, nil
}

// newEpochSharded builds the shard set for the rotation-th epoch. The
// epoch seed strides by nshards+1 rotations so that no (epoch, shard) pair
// ever reuses another pair's hash seed — Sharded derives shard i's seed at
// offset i from the epoch seed, and the next epoch starts beyond shard
// n-1's offset.
func (w *ShardedWindow) newEpochSharded(rotation int) (*Sharded, error) {
	per := w.cfg
	stride := w.nshards + 1
	if stride < 2 {
		stride = 2
	}
	per.Seed = epoch.Seed(w.cfg.Seed, rotation*stride)
	return NewShardedOptions(w.nshards, per, w.opts)
}

// NumShards returns the per-epoch shard count.
func (w *ShardedWindow) NumShards() int { return w.nshards }

// EpochsSealed returns how many sealed epochs currently back queries.
func (w *ShardedWindow) EpochsSealed() int {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	return w.lc.Len()
}

// Rotations returns how many epochs have been sealed in total, including
// retired ones.
func (w *ShardedWindow) Rotations() int {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	return w.lc.Rotations()
}

// Ingester returns a new per-producer ingest handle bound to the window.
// The handle survives rotations: Rotate re-points it at the next epoch's
// shard set, so producers hold one handle for the life of the window.
// Minting from a closed window panics, like Sharded.Ingester.
func (w *ShardedWindow) Ingester() *WindowIngester {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		panic("caesar: Ingester after Close")
	}
	wi := &WindowIngester{w: w, h: w.lc.Current().Ingester()}
	w.handles = append(w.handles, wi)
	return wi
}

// Observe routes one packet into the current epoch. Safe for concurrent
// use via a shared internal handle; producers that need ingest to scale
// should hold their own handle from Ingester.
func (w *ShardedWindow) Observe(flow FlowID) { w.legacy.Observe(flow) }

// ObserveBatch routes a batch of packets into the current epoch through
// the shared internal handle.
func (w *ShardedWindow) ObserveBatch(flows []FlowID) { w.legacy.ObserveBatch(flows) }

// ObservePacket parses a 5-tuple and routes one packet of its flow,
// deriving the flow ID with the window's configured FlowHash.
func (w *ShardedWindow) ObservePacket(t FiveTuple) { w.legacy.ObservePacket(t) }

// ObservePackets routes a block of raw 5-tuples into the current epoch
// through the shared internal handle, fusing flow-ID derivation with the
// batched ingest path (see WindowIngester.ObservePackets).
func (w *ShardedWindow) ObservePackets(tuples []FiveTuple) { w.legacy.ObservePackets(tuples) }

// HashTuple derives the flow ID the window's ingest paths would assign to
// the tuple: the keyed fast hash when opts.FlowHash == FlowHashFast, the
// paper-faithful SHA-1 ⊕ APHash derivation otherwise. Unlike Sharded's
// per-epoch hashers, this mapping is fixed for the life of the window, so
// callers can hash once and query the same FlowID across rotations.
//
//caesar:hotpath per-packet flow-ID derivation on the windowed tuple ingest path
func (w *ShardedWindow) HashTuple(t FiveTuple) FlowID { return w.hasher.id(t) }

// WindowIngester is a per-producer ingest handle that follows the window
// across rotations. It wraps the current epoch's Ingester; Rotate swaps
// the wrapped handle under the same mutex the packet path holds, so a
// packet is never split between epochs and a swap never loses buffered
// packets (the old epoch's seal barrier drains them).
type WindowIngester struct {
	w  *ShardedWindow // owning window: FlowHash option and window-stable hasher
	mu sync.Mutex
	h  *Ingester // current epoch's handle, guarded by mu
	// idBuf is the ObservePackets block-hashing scratch, guarded by mu.
	// Tuples are hashed with the *window's* hasher (not the epoch's) so a
	// flow's ID never changes across rotations.
	idBuf []FlowID
}

// Observe records one packet in the window's current epoch. After the
// window closes, packets land in the final epoch's DroppedAfterClose
// ledger — a counted no-op, exactly like Sharded's contract.
//
//caesar:hotpath the per-packet entry point of the live measurement service
func (wi *WindowIngester) Observe(flow FlowID) {
	wi.mu.Lock()
	wi.h.Observe(flow)
	wi.mu.Unlock()
}

// ObserveBatch records a batch of packets in the window's current epoch
// under one handle lock acquisition.
//
//caesar:hotpath the batched entry point of the live measurement service
func (wi *WindowIngester) ObserveBatch(flows []FlowID) {
	wi.mu.Lock()
	wi.h.ObserveBatch(flows)
	wi.mu.Unlock()
}

// ObservePacket parses a 5-tuple and records one packet of its flow,
// deriving the flow ID with the window's configured FlowHash.
func (wi *WindowIngester) ObservePacket(t FiveTuple) { wi.Observe(wi.w.HashTuple(t)) }

// ObservePackets is the fused tuple-level block ingest path of the windowed
// service: one call hashes the whole block of raw 5-tuples (with the
// window-stable FlowHash — FlowIDer.IDBlock when fast) and hands the IDs to
// the current epoch's batched ingest, all under a single handle lock, so a
// block is never split across an epoch rotation.
//
//caesar:hotpath the fused tuple-block entry point of the live measurement service
func (wi *WindowIngester) ObservePackets(tuples []FiveTuple) {
	if len(tuples) == 0 {
		return
	}
	wi.mu.Lock()
	wi.idBuf = wi.w.hasher.block(wi.idBuf[:0], tuples)
	wi.h.ObserveBatch(wi.idBuf)
	wi.mu.Unlock()
}

// Flush pushes the handle's partially-filled buffers to the current
// epoch's shard workers, bounding how long a trickle of packets can stay
// invisible to queries of the *next* sealed epoch.
func (wi *WindowIngester) Flush() {
	wi.mu.Lock()
	wi.h.Flush()
	wi.mu.Unlock()
}

// swap re-points the handle at the next epoch. Holding wi.mu orders the
// swap after any in-flight Observe on the old epoch, so the old epoch's
// close barrier sees every packet this handle accepted for it.
func (wi *WindowIngester) swap(h *Ingester) {
	wi.mu.Lock()
	wi.h = h
	wi.mu.Unlock()
}

// Rotate seals the current epoch and starts the next one. Producers keep
// ingesting throughout: the next epoch's shard set is built first, every
// handle is swapped onto it, and only then does the seal barrier drain and
// flush the old epoch. Queries gain the sealed epoch atomically once the
// barrier completes. Uses no deadline — with the Block overflow policy a
// wedged consumer can stall the seal; use RotateContext to bound it.
func (w *ShardedWindow) Rotate() error {
	return w.RotateContext(context.Background())
}

// RotateContext is Rotate with a deadline for the seal barrier. When ctx
// expires mid-seal, the old epoch's shutdown machinery takes over: blocked
// senders give up, undrained packets are counted in the sealed epoch's
// DroppedTimeout, and wedged shards are quarantined — the sealed epoch
// still joins the ring, answering from whatever state drained in time,
// and the ledger invariant holds exactly. The next epoch ingests normally
// either way. Returns ctx's error when the seal was cut short.
func (w *ShardedWindow) RotateContext(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("caesar: Rotate after Close")
	}
	next, err := w.newEpochSharded(w.lc.Rotations() + 1)
	if err != nil {
		return err
	}
	for _, wi := range w.handles {
		wi.swap(next.Ingester())
	}
	old := w.lc.Current()
	closeErr := old.closeWith(ctx)
	w.sealInto(old, next)
	return closeErr
}

// sealInto pushes the closed epoch into the query ring and installs next
// as the current epoch, folding a retired epoch's totals into the
// cumulative counters. Called with w.mu held; takes the ring write lock
// only for the push itself.
func (w *ShardedWindow) sealInto(old *Sharded, next *Sharded) {
	est, err := old.Estimator()
	if err != nil {
		// Unreachable: the epoch was just closed, and Estimator only fails
		// on an open sketch. Seal an empty view rather than lose the epoch.
		est = &ShardedEstimator{owner: old, ests: make([]*Estimator, old.NumShards())}
	}
	we := &windowEpoch{rotation: w.lc.Rotations(), sh: old, est: est}
	w.ringMu.Lock()
	retired, wasRetired := w.lc.Rotate(we, next)
	if wasRetired {
		w.retiredPackets += retired.sh.NumPackets()
		w.retiredDropped += retired.sh.DroppedPackets()
		accumulateStats(&w.retiredStats, retired.sh.Stats())
	}
	w.ringMu.Unlock()
}

// Close seals the current epoch into the ring (folding its packets into
// the queryable window) and stops ingestion. Idempotent. Packets observed
// through a handle after Close are counted no-ops in the final epoch's
// ledger, so the accounting invariant stays exact. Use CloseContext to
// bound the final seal barrier.
func (w *ShardedWindow) Close() error {
	return w.CloseContext(context.Background())
}

// CloseContext is Close with a deadline for the final seal barrier, with
// RotateContext's cut-short semantics.
func (w *ShardedWindow) CloseContext(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	old := w.lc.Current()
	closeErr := old.closeWith(ctx)
	w.sealInto(old, nil)
	return closeErr
}

// NumPackets returns the packets applied across the window's lifetime:
// retired epochs plus the sealed ring. The still-open epoch is excluded —
// its counts cannot be read consistently while workers apply batches —
// so the figure is exact after Close (or covers everything up to the last
// Rotate before it).
func (w *ShardedWindow) NumPackets() uint64 {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	n := w.retiredPackets
	for i, ln := 0, w.lc.Len(); i < ln; i++ {
		n += w.lc.At(i).sh.NumPackets()
	}
	return n
}

// DroppedPackets returns the packets counted as dropped across the
// window's lifetime: retired epochs, the sealed ring, and the still-open
// epoch's live ledger (its counters are atomics, so the read is safe at
// any time).
func (w *ShardedWindow) DroppedPackets() uint64 {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	n := w.retiredDropped
	for i, ln := 0, w.lc.Len(); i < ln; i++ {
		n += w.lc.At(i).sh.DroppedPackets()
	}
	if cur := w.lc.Current(); cur != nil {
		n += cur.DroppedPackets()
	}
	return n
}

// EffectiveLossRate returns dropped / (applied + dropped) over the
// window's lifetime — the live analogue of the paper's RCS loss rate ρ.
func (w *ShardedWindow) EffectiveLossRate() float64 {
	dropped := float64(w.DroppedPackets())
	if dropped <= 0 {
		return 0
	}
	return dropped / (dropped + float64(w.NumPackets()))
}

// Health reports the current epoch's worker-pool state, or the final
// sealed epoch's after Close.
func (w *ShardedWindow) Health() Health {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	if cur := w.lc.Current(); cur != nil {
		return cur.Health()
	}
	if n := w.lc.Len(); n > 0 {
		return w.lc.At(n - 1).sh.Health()
	}
	return Healthy
}

// Stats aggregates observability counters over the window's lifetime:
// retired epochs, the sealed ring, and the still-open epoch's loss ledger
// (only its atomic drop counters are read — per-shard cache statistics of
// the open epoch are deferred until its seal). DroppedPackets and
// EffectiveLossRate are recomputed over the aggregate.
func (w *ShardedWindow) Stats() Stats {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	agg := w.retiredStats
	for i, ln := 0, w.lc.Len(); i < ln; i++ {
		accumulateStats(&agg, w.lc.At(i).sh.Stats())
	}
	if cur := w.lc.Current(); cur != nil {
		accumulateStats(&agg, cur.ledgerStats())
		agg.Health = cur.Health()
		agg.QuarantinedShards = cur.quarantinedShards()
	} else if n := w.lc.Len(); n > 0 {
		last := w.lc.At(n - 1).sh
		agg.Health = last.Health()
		agg.QuarantinedShards = last.quarantinedShards()
	}
	agg.DroppedPackets = agg.DroppedOverflow + agg.DroppedSampled +
		agg.DroppedQuarantine + agg.DroppedTimeout + agg.DroppedAfterClose +
		agg.DroppedInjected
	if agg.DroppedPackets > 0 {
		agg.EffectiveLossRate = float64(agg.DroppedPackets) /
			(float64(agg.DroppedPackets) + float64(agg.Packets))
	} else {
		agg.EffectiveLossRate = 0
	}
	return agg
}

// accumulateStats adds src's additive counters into dst. Health and
// QuarantinedShards are point-in-time states, not counters; callers set
// them after accumulation.
func accumulateStats(dst *Stats, src Stats) {
	dst.Packets += src.Packets
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.OverflowEvictions += src.OverflowEvictions
	dst.PressureEvictions += src.PressureEvictions
	dst.FlushEvictions += src.FlushEvictions
	dst.SRAMWrites += src.SRAMWrites
	dst.CacheKB += src.CacheKB
	dst.SRAMKB += src.SRAMKB
	dst.DroppedOverflow += src.DroppedOverflow
	dst.DroppedSampled += src.DroppedSampled
	dst.DroppedQuarantine += src.DroppedQuarantine
	dst.DroppedTimeout += src.DroppedTimeout
	dst.DroppedAfterClose += src.DroppedAfterClose
	dst.DroppedInjected += src.DroppedInjected
	dst.DroppedBatches += src.DroppedBatches
}

// ledgerStats builds a Stats carrying only the atomic loss ledger — the
// fields that are safe to read while workers are still applying batches.
func (s *Sharded) ledgerStats() Stats {
	var st Stats
	st.DroppedOverflow = s.drops.overflow.Load()
	st.DroppedSampled = s.drops.sampled.Load()
	st.DroppedQuarantine = s.drops.quarantine.Load()
	st.DroppedTimeout = s.drops.timeout.Load()
	st.DroppedAfterClose = s.drops.afterClose.Load()
	st.DroppedInjected = s.drops.injected.Load()
	st.DroppedBatches = s.drops.batches.Load()
	st.DroppedPackets = st.DroppedOverflow + st.DroppedSampled +
		st.DroppedQuarantine + st.DroppedTimeout + st.DroppedAfterClose +
		st.DroppedInjected
	return st
}

// snapshotEpochs copies the sealed ring, oldest first, into the query
// scratch. Called with queryMu held; takes the ring read lock only for the
// copy, so queries never block a rotation's seal barrier.
func (w *ShardedWindow) snapshotEpochs() []*windowEpoch {
	w.ringMu.RLock()
	w.epochScratch = w.lc.AppendSealed(w.epochScratch[:0])
	w.ringMu.RUnlock()
	return w.epochScratch
}

// Estimate returns the flow's estimated packet count summed over the
// sealed epochs. The still-open epoch is not included; Rotate (or Close)
// folds it in. Safe for concurrent use at any time, including during
// rotation.
func (w *ShardedWindow) Estimate(flow FlowID, m Method) float64 {
	w.queryMu.Lock()
	defer w.queryMu.Unlock()
	var sum float64
	for _, we := range w.snapshotEpochs() {
		sum += we.est.Estimate(flow, m)
	}
	return sum
}

// EstimateWithInterval returns the windowed CSM estimate with a
// reliability-alpha confidence interval; per-epoch variances add because
// epochs hash with independent seeds.
func (w *ShardedWindow) EstimateWithInterval(flow FlowID, alpha float64) (float64, Interval) {
	w.queryMu.Lock()
	defer w.queryMu.Unlock()
	z := stats.ZAlpha(alpha)
	var sum, varsum float64
	for _, we := range w.snapshotEpochs() {
		est, iv := we.est.EstimateWithInterval(flow, alpha)
		sum += est
		half := iv.Width() / 2
		varsum += (half / z) * (half / z)
	}
	half := z * math.Sqrt(varsum)
	return sum, Interval{Lo: sum - half, Hi: sum + half}
}

// EstimateLossAdjusted scales Estimate by 1/(1-EffectiveLossRate), the
// paper's Figure 7 correction, over the window's lifetime loss rate.
func (w *ShardedWindow) EstimateLossAdjusted(flow FlowID, m Method) float64 {
	rho := w.EffectiveLossRate()
	if rho <= 0 {
		return w.Estimate(flow, m)
	}
	if rho >= 1 {
		return 0
	}
	return w.Estimate(flow, m) / (1 - rho)
}

// EstimateMany computes every flow's windowed estimate with one bulk pass
// per sealed epoch per shard — flows[i]'s estimate lands at index i, and
// the result is bit-identical to calling Estimate in a loop. dst is reused
// when it has capacity. Safe for concurrent use (queries serialize
// internally).
func (w *ShardedWindow) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	return w.queryAllWindow(flows, m, 1, dst)
}

// QueryAll is EstimateMany with each epoch's per-shard bulk passes fanned
// out across workers goroutines (workers <= 0 means GOMAXPROCS). Output is
// bit-identical regardless of worker count.
func (w *ShardedWindow) QueryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	return w.queryAllWindow(flows, m, workers, dst)
}

func (w *ShardedWindow) queryAllWindow(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	w.queryMu.Lock()
	defer w.queryMu.Unlock()
	out := resizeFloats(dst, len(flows))
	for i := range out {
		out[i] = 0
	}
	if len(flows) == 0 {
		return out
	}
	scratch := resizeFloats(w.sumScratch, len(flows))
	for _, we := range w.snapshotEpochs() {
		scratch = we.est.queryAll(flows, m, workers, scratch)
		for i, v := range scratch {
			out[i] += v
		}
	}
	w.sumScratch = scratch
	return out
}

// Epochs returns a point-in-time view of the sealed epochs, oldest first.
// Views stay valid after later rotations (sealed epochs are immutable);
// a view's epoch may however already have been retired from the ring.
func (w *ShardedWindow) Epochs() []EpochView {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	views := make([]EpochView, 0, w.lc.Len())
	for i, n := 0, w.lc.Len(); i < n; i++ {
		views = append(views, EpochView{w: w, we: w.lc.At(i)})
	}
	return views
}

// LastSealed returns a view of the most recently sealed epoch, or ok=false
// when nothing has been sealed yet. The degraded read path in caesar-serve
// answers from this epoch (with loss-adjusted estimates and staleness
// headers) while the live epoch is unhealthy.
func (w *ShardedWindow) LastSealed() (EpochView, bool) {
	w.ringMu.RLock()
	defer w.ringMu.RUnlock()
	n := w.lc.Len()
	if n == 0 {
		return EpochView{}, false
	}
	return EpochView{w: w, we: w.lc.At(n - 1)}, true
}

// EpochView is a frozen query handle over one sealed epoch — the unit the
// detectors consume (per-epoch heavy hitters, epoch-over-epoch change
// detection). All query methods serialize on the window's query mutex.
type EpochView struct {
	w  *ShardedWindow
	we *windowEpoch
}

// Rotation returns the epoch's 0-based ordinal since window construction.
func (v EpochView) Rotation() int { return v.we.rotation }

// NumPackets returns the packets applied to this epoch's counters.
func (v EpochView) NumPackets() uint64 { return v.we.sh.NumPackets() }

// DroppedPackets returns this epoch's counted drops, by all causes.
func (v EpochView) DroppedPackets() uint64 { return v.we.sh.DroppedPackets() }

// Stats returns this epoch's full observability counters and loss ledger.
func (v EpochView) Stats() Stats { return v.we.sh.Stats() }

// Covered reports whether the flow's owning shard produced a query view in
// this epoch (false only for unrecoverable quarantined shards).
func (v EpochView) Covered(flow FlowID) bool { return v.we.est.Covered(flow) }

// Estimate returns the flow's estimated count within this epoch alone.
func (v EpochView) Estimate(flow FlowID, m Method) float64 {
	v.w.queryMu.Lock()
	defer v.w.queryMu.Unlock()
	return v.we.est.Estimate(flow, m)
}

// EstimateWithInterval returns the epoch-local CSM estimate and interval.
func (v EpochView) EstimateWithInterval(flow FlowID, alpha float64) (float64, Interval) {
	v.w.queryMu.Lock()
	defer v.w.queryMu.Unlock()
	return v.we.est.EstimateWithInterval(flow, alpha)
}

// EstimateMany bulk-estimates every flow within this epoch alone;
// flows[i]'s estimate lands at index i.
func (v EpochView) EstimateMany(flows []FlowID, m Method, dst []float64) []float64 {
	v.w.queryMu.Lock()
	defer v.w.queryMu.Unlock()
	return v.we.est.EstimateMany(flows, m, dst)
}

// QueryAll is EstimateMany with the per-shard passes parallelized across
// workers goroutines; output is bit-identical at any worker count.
func (v EpochView) QueryAll(flows []FlowID, m Method, workers int, dst []float64) []float64 {
	v.w.queryMu.Lock()
	defer v.w.queryMu.Unlock()
	return v.we.est.QueryAll(flows, m, workers, dst)
}
