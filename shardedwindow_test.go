package caesar

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func shardedWindowConfig() Config {
	return Config{
		Counters:      1 << 13,
		CacheEntries:  1 << 9,
		CacheCapacity: 32,
		Seed:          5,
	}
}

func TestShardedWindowValidation(t *testing.T) {
	if _, err := NewShardedWindow(0, 2, shardedWindowConfig()); err == nil {
		t.Error("0 epochs accepted")
	}
	if _, err := NewShardedWindow(3, 2, Config{}); err == nil {
		t.Error("bad sketch config accepted")
	}
	if _, err := NewShardedWindow(3, -1, shardedWindowConfig()); err == nil {
		t.Error("negative shard count accepted")
	}
}

func TestShardedWindowSumsSealedEpochs(t *testing.T) {
	w, err := NewShardedWindow(3, 4, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Three epochs with 300 packets of flow 7 each; a fourth epoch's worth
	// stays unsealed.
	for e := 0; e < 3; e++ {
		w.ObserveBatch(repeatFlow(7, 300))
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	w.ObserveBatch(repeatFlow(7, 300))
	if w.EpochsSealed() != 3 || w.Rotations() != 3 {
		t.Fatalf("sealed=%d rotations=%d", w.EpochsSealed(), w.Rotations())
	}
	if got := w.Estimate(7, CSM); math.Abs(got-900) > 9 {
		t.Fatalf("window estimate = %v, want ~900 (current epoch excluded)", got)
	}
	est, iv := w.EstimateWithInterval(7, 0.95)
	if !iv.Contains(est) || !iv.Contains(900) {
		t.Fatalf("interval %+v excludes estimate %v or truth 900", iv, est)
	}
	// Close seals the fourth epoch: the window slides, still 3 sealed.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.EpochsSealed() != 3 || w.Rotations() != 4 {
		t.Fatalf("after close: sealed=%d rotations=%d", w.EpochsSealed(), w.Rotations())
	}
	if got := w.Estimate(7, CSM); math.Abs(got-900) > 9 {
		t.Fatalf("post-close window estimate = %v, want ~900 (oldest epoch retired)", got)
	}
}

func TestShardedWindowSlidesOldEpochsOut(t *testing.T) {
	w, err := NewShardedWindow(2, 2, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.ObserveBatch(repeatFlow(1, 400))
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		w.ObserveBatch(repeatFlow(2, 250))
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Estimate(1, CSM); math.Abs(got) > 8 {
		t.Fatalf("expired flow still estimates %v", got)
	}
	if got := w.Estimate(2, CSM); math.Abs(got-500) > 8 {
		t.Fatalf("flow 2 window estimate = %v, want ~500", got)
	}
	// Retired epochs stay in the lifetime ledger.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.NumPackets() + w.DroppedPackets(); got != 900 {
		t.Fatalf("lifetime ledger = %d, want 900 (retired epochs must stay counted)", got)
	}
}

func TestShardedWindowMultiHandleLedger(t *testing.T) {
	w, err := NewShardedWindow(2, 4, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	const perHandle = 5000
	h1, h2 := w.Ingester(), w.Ingester()
	for i := 0; i < perHandle; i++ {
		h1.ObserveBatch([]FlowID{FlowID(i % 31)})
		h2.ObserveBatch([]FlowID{FlowID(i % 57)})
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	h1.ObserveBatch(cyclicFlows(perHandle, 31))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	observed := uint64(3 * perHandle)
	if got := w.NumPackets() + w.DroppedPackets(); got != observed {
		t.Fatalf("ledger: applied %d + dropped %d != observed %d",
			w.NumPackets(), w.DroppedPackets(), observed)
	}
	st := w.Stats()
	if uint64(st.Packets)+st.DroppedPackets != observed {
		t.Fatalf("Stats ledger: %d + %d != %d", st.Packets, st.DroppedPackets, observed)
	}
	// Post-close observes are counted no-ops in the final epoch's ledger.
	h1.ObserveBatch([]FlowID{99})
	h2.ObserveBatch([]FlowID{1, 2, 3})
	if got := w.NumPackets() + w.DroppedPackets(); got != observed+4 {
		t.Fatalf("post-close ledger: got %d, want %d", got, observed+4)
	}
}

// TestShardedWindowSealBarrierIngest pins the seal-barrier contract: while
// Rotate seals the old epoch, a producer's handle already feeds the next
// one. The old epoch's worker blocks on the first batch it applies, which is
// the partial buffer the seal drains from the handle, so Rotate is held
// inside the seal; an ObserveBatch on the same handle must still return.
// Afterwards each epoch holds exactly the packets observed into it.
func TestShardedWindowSealBarrierIngest(t *testing.T) {
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	w, err := NewShardedWindowOptions(2, 2, shardedWindowConfig(), ShardedOptions{
		BatchSize: 1024, // packets stay in the handle until a seal drains them
		Hooks: ShardedHooks{OnWorkerBatch: func(shard, packets int) {
			if armed.CompareAndSwap(true, false) {
				close(entered)
				<-release
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	const first, second = 300, 200
	h.ObserveBatch(cyclicFlows(first, 31))
	armed.Store(true)
	rotated := make(chan error, 1)
	go func() { rotated <- w.Rotate() }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the seal never applied the packets the handle buffered for the old epoch")
	}

	observed := make(chan struct{})
	go func() {
		h.ObserveBatch(cyclicFlows(second, 31))
		close(observed)
	}()
	select {
	case <-observed:
	case <-time.After(10 * time.Second):
		t.Fatal("ObserveBatch into the next epoch waited for the old epoch's seal")
	}
	select {
	case err := <-rotated:
		t.Fatalf("Rotate returned (%v) while its seal was still blocked", err)
	default:
	}
	once.Do(func() { close(release) })
	if err := <-rotated; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	views := w.Epochs()
	if len(views) != 2 {
		t.Fatalf("Epochs() = %d views, want 2", len(views))
	}
	for i, want := range []uint64{first, second} {
		if got, dropped := views[i].NumPackets(), views[i].DroppedPackets(); got != want || dropped != 0 {
			t.Fatalf("epoch %d: %d packets applied and %d dropped, want %d and 0", i, got, dropped, want)
		}
	}
	if got := w.NumPackets() + w.DroppedPackets(); got != first+second {
		t.Fatalf("window ledger = %d, want %d", got, first+second)
	}
}

func TestShardedWindowRotateAfterCloseFails(t *testing.T) {
	w, err := NewShardedWindow(2, 2, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
	if err := w.Rotate(); err == nil {
		t.Fatal("Rotate after Close succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ingester after Close did not panic")
		}
	}()
	w.Ingester()
}

func TestShardedWindowBulkMatchesScalar(t *testing.T) {
	w, err := NewShardedWindow(3, 4, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]FlowID, 200)
	for i := range flows {
		flows[i] = FlowID(i * 13)
	}
	for e := 0; e < 3; e++ {
		for rep := 0; rep < 20; rep++ {
			w.ObserveBatch(flows)
		}
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []Method{CSM, MLM} {
		bulk := w.EstimateMany(flows, m, nil)
		for i, f := range flows {
			if got := w.Estimate(f, m); got != bulk[i] {
				t.Fatalf("%v flow %d: scalar %v != bulk %v", m, f, got, bulk[i])
			}
		}
		for _, workers := range []int{2, 5} {
			par := w.QueryAll(flows, m, workers, nil)
			for i := range flows {
				if par[i] != bulk[i] {
					t.Fatalf("%v workers=%d flow %d: %v != %v", m, workers, flows[i], par[i], bulk[i])
				}
			}
		}
	}
	// Per-epoch views partition the window sum exactly.
	views := w.Epochs()
	if len(views) != 3 {
		t.Fatalf("Epochs() = %d views, want 3", len(views))
	}
	whole := w.EstimateMany(flows, CSM, nil)
	sum := make([]float64, len(flows))
	for _, v := range views {
		part := v.EstimateMany(flows, CSM, nil)
		for i := range sum {
			sum[i] += part[i]
		}
	}
	for i := range flows {
		if math.Abs(sum[i]-whole[i]) > 1e-9 {
			t.Fatalf("epoch views sum %v != window %v for flow %d", sum[i], whole[i], flows[i])
		}
	}
	if views[0].Rotation() != 0 || views[2].Rotation() != 2 {
		t.Fatalf("view rotations = %d..%d, want 0..2", views[0].Rotation(), views[2].Rotation())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedWindowSnapshotBitIdentical pins the service's central
// round-trip guarantee: estimates from a loaded snapshot are bit-identical
// to the live window's, the lifetime ledger survives (including retired
// epochs), and the restored window resumes with the writer's rotation
// seeds so both produce identical epochs from identical traffic.
func TestShardedWindowSnapshotBitIdentical(t *testing.T) {
	w, err := NewShardedWindow(2, 4, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]FlowID, 150)
	for i := range flows {
		flows[i] = FlowID(i * 7)
	}
	feed := func(sw *ShardedWindow) {
		h := sw.Ingester()
		for rep := 0; rep < 25; rep++ {
			h.ObserveBatch(flows)
		}
	}
	// Rotate past the window size so a retired epoch is in play.
	for e := 0; e < 3; e++ {
		feed(w)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadShardedWindow(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rotations() != w.Rotations() || r.EpochsSealed() != w.EpochsSealed() {
		t.Fatalf("restored rotations/sealed = %d/%d, want %d/%d",
			r.Rotations(), r.EpochsSealed(), w.Rotations(), w.EpochsSealed())
	}
	if r.NumPackets() != w.NumPackets() || r.DroppedPackets() != w.DroppedPackets() {
		t.Fatalf("restored ledger %d+%d, want %d+%d",
			r.NumPackets(), r.DroppedPackets(), w.NumPackets(), w.DroppedPackets())
	}
	live := w.EstimateMany(flows, CSM, nil)
	loaded := r.EstimateMany(flows, CSM, nil)
	for i := range flows {
		if live[i] != loaded[i] {
			t.Fatalf("flow %d: live %v != loaded %v (must be bit-identical)", flows[i], live[i], loaded[i])
		}
	}

	// Resume: identical traffic into both must produce identical epochs —
	// pins that the restored current epoch uses the writer's next rotation
	// seed, not a restart from rotation 0.
	feed(w)
	feed(r)
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Rotate(); err != nil {
		t.Fatal(err)
	}
	liveNext := w.EstimateMany(flows, CSM, nil)
	loadedNext := r.EstimateMany(flows, CSM, nil)
	for i := range flows {
		if liveNext[i] != loadedNext[i] {
			t.Fatalf("after resume, flow %d: live %v != loaded %v (rotation seeds diverged)",
				flows[i], liveNext[i], loadedNext[i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedWindowSnapshotWhileIngesting pins that WriteTo is safe and
// meaningful on a live, mid-epoch window: it captures exactly the sealed
// ring (queries' view) without stopping ingest.
func TestShardedWindowSnapshotWhileIngesting(t *testing.T) {
	w, err := NewShardedWindow(2, 2, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	w.ObserveBatch(cyclicFlows(500, 19))
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	w.ObserveBatch(cyclicFlows(123, 19)) // mid-epoch traffic a snapshot must not capture
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadShardedWindow(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPackets() != 500 {
		t.Fatalf("snapshot captured %d packets, want the 500 sealed ones", r.NumPackets())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// queryTestWindow builds a window of three sealed epochs over nshards
// shards. The traffic covers only a slice of the query flows, so queries
// mix observed flows with pure sharing noise.
func queryTestWindow(t *testing.T, nshards int) *ShardedWindow {
	t.Helper()
	w, err := NewShardedWindow(3, nshards, shardedWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := w.Ingester()
	pkts := make([]FlowID, 20000)
	for e := 0; e < 3; e++ {
		for i := range pkts {
			pkts[i] = FlowID((i * (e + 3) * 2654435761) % 4099)
		}
		h.ObserveBatch(pkts)
		if err := w.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// checkWindowQueryMatchesScalar requires EstimateMany and QueryAll at
// every worker count to equal the scalar Estimate loop bit for bit, on
// every prefix length in counts of flows.
func checkWindowQueryMatchesScalar(t *testing.T, name string, w *ShardedWindow, flows []FlowID, counts []int) {
	t.Helper()
	for _, m := range []Method{CSM, MLM} {
		want := make([]float64, len(flows))
		for i, f := range flows {
			want[i] = w.Estimate(f, m)
		}
		for _, n := range counts {
			for _, workers := range []int{1, 2, 4} {
				got := w.QueryAll(flows[:n], m, workers, nil)
				if workers == 1 {
					got = w.EstimateMany(flows[:n], m, got)
				}
				if len(got) != n {
					t.Fatalf("%s %v n=%d workers=%d: %d results", name, m, n, workers, len(got))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %v n=%d workers=%d flow %d: bulk %v, scalar %v",
							name, m, n, workers, flows[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardedWindowQueryMatchesScalar pins the window's bulk query — one
// shard grouping per chunk of flows, every epoch summed over it — to the
// scalar loop across chunk boundaries, worker and shard counts, a sealed
// epoch with an unrecoverable shard, and a restored window.
func TestShardedWindowQueryMatchesScalar(t *testing.T) {
	counts := []int{0, 1, queryChunk - 1, queryChunk, queryChunk + 1, 3*queryChunk + 7}
	flows := make([]FlowID, counts[len(counts)-1])
	for i := range flows {
		flows[i] = FlowID((i * 7919) % 9001) // repeats: duplicate query flows
	}
	for _, nshards := range []int{1, 2, 3} {
		w := queryTestWindow(t, nshards)
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := ReadShardedWindow(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		checkWindowQueryMatchesScalar(t, fmt.Sprintf("restored shards=%d", nshards), r, flows, counts)

		// An unrecoverable shard in the middle sealed epoch: its flows
		// estimate 0 in that epoch, on the scalar and bulk paths alike.
		w.lc.At(1).est.ests[nshards-1] = nil
		checkWindowQueryMatchesScalar(t, fmt.Sprintf("quarantined shards=%d", nshards), w, flows, counts)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedWindowEpochShardCountMismatch requires a snapshot whose
// sealed epochs disagree with the window's shard count to fail the
// restore: window queries route every epoch with one grouping.
func TestShardedWindowEpochShardCountMismatch(t *testing.T) {
	w := queryTestWindow(t, 2)
	w.nshards = 3
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardedWindow(&buf); err == nil || !strings.Contains(err.Error(), "has 2 shards, window has 3") {
		t.Fatalf("restore of a mismatched epoch: err = %v, want a shard-count error", err)
	}
	w.nshards = 2
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedWindowEstimateManyZeroAllocs(t *testing.T) {
	for _, nshards := range []int{1, 3} {
		w := queryTestWindow(t, nshards)
		flows, _ := bulkAPIFlows(1024)
		dst := make([]float64, len(flows))
		w.EstimateMany(flows, CSM, dst) // warm the query scratch
		if allocs := testing.AllocsPerRun(20, func() {
			w.EstimateMany(flows, CSM, dst)
		}); allocs != 0 {
			t.Fatalf("shards=%d: window EstimateMany allocated %.1f times per run in steady state", nshards, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			w.QueryAll(flows, MLM, 1, dst)
		}); allocs != 0 {
			t.Fatalf("shards=%d: single-worker window QueryAll allocated %.1f times per run", nshards, allocs)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
