package caesar

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-sketch/caesar/internal/hashing"
)

func ingesterTestConfig() Config {
	return Config{
		Counters:      1 << 12,
		CacheEntries:  1 << 8,
		CacheCapacity: 16,
		Seed:          7,
	}
}

func shardedSnapshot(t *testing.T, s *Sharded) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestIngesterEquivalence feeds the same trace through the legacy Observe
// wrapper and through a dedicated Ingester handle and requires byte-identical
// snapshots: per-shard packet order is preserved regardless of which handle
// buffered the packets, so the two paths must be indistinguishable to the
// sketch state.
func TestIngesterEquivalence(t *testing.T) {
	legacy, err := NewSharded(4, ingesterTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	handle, err := NewSharded(4, ingesterTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := handle.Ingester()

	rng := hashing.NewPRNG(3)
	for i := 0; i < 50000; i++ {
		f := FlowID(rng.Intn(2000))
		legacy.Observe(f)
		h.Observe(f)
	}
	legacy.Close()
	handle.Close()

	if got, want := handle.NumPackets(), legacy.NumPackets(); got != want {
		t.Fatalf("NumPackets: ingester %d vs legacy %d", got, want)
	}
	if !bytes.Equal(shardedSnapshot(t, legacy), shardedSnapshot(t, handle)) {
		t.Fatal("ingester-fed snapshot differs from legacy Observe snapshot")
	}
}

// TestIngesterBatchSizeInvariance runs one trace under several batch sizes
// (including the degenerate size 1, which dispatches every packet) and via
// ObserveBatch, requiring identical snapshots: batching must only change
// when packets move, never what the shards eventually see or in what order.
func TestIngesterBatchSizeInvariance(t *testing.T) {
	trace := make([]FlowID, 30000)
	rng := hashing.NewPRNG(5)
	for i := range trace {
		trace[i] = FlowID(rng.Intn(1500))
	}

	var want []byte
	for _, opt := range []ShardedOptions{
		{},
		{BatchSize: 1},
		{BatchSize: 3, QueueDepth: 2},
		{BatchSize: 4096},
	} {
		s, err := NewShardedOptions(4, ingesterTestConfig(), opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		h := s.Ingester()
		// Mix the single-packet and batch entry points: same packets in the
		// same order, so the result must not depend on the entry point either.
		h.ObserveBatch(trace[:10000])
		for _, f := range trace[10000:20000] {
			h.Observe(f)
		}
		h.Flush() // mid-stream Flush must not disturb anything
		h.ObserveBatch(trace[20000:])
		s.Close()
		snap := shardedSnapshot(t, s)
		if want == nil {
			want = snap
			continue
		}
		if !bytes.Equal(snap, want) {
			t.Fatalf("snapshot under options %+v differs from default-options snapshot", opt)
		}
	}
}

// TestShardedOptions pins the option plumbing: zero values select the
// documented defaults, explicit values stick, and nonsense is rejected.
func TestShardedOptions(t *testing.T) {
	s, err := NewSharded(2, ingesterTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if o := s.Options(); o.BatchSize != DefaultShardBatchSize || o.QueueDepth != DefaultShardQueueDepth {
		t.Fatalf("default options = %+v", o)
	}
	s.Close()

	s, err = NewShardedOptions(2, ingesterTestConfig(), ShardedOptions{BatchSize: 17, QueueDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if o := s.Options(); o.BatchSize != 17 || o.QueueDepth != 3 {
		t.Fatalf("explicit options = %+v", o)
	}
	s.Close()

	for _, bad := range []ShardedOptions{
		{BatchSize: -1},
		{QueueDepth: -2},
		{SampleRate: -3},
		{OverflowPolicy: OverflowPolicy(99)},
		{OverflowPolicy: OverflowPolicy(-1)},
	} {
		if _, err := NewShardedOptions(2, ingesterTestConfig(), bad); err == nil {
			t.Fatalf("NewShardedOptions accepted %+v", bad)
		}
	}

	// The overflow defaults: Block policy, documented sample rate.
	s, err = NewSharded(2, ingesterTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if o := s.Options(); o.OverflowPolicy != Block || o.SampleRate != DefaultShardSampleRate {
		t.Fatalf("default overflow options = %+v", o)
	}
	s.Close()

	for p, want := range map[OverflowPolicy]string{Block: "block", Drop: "drop", Sample: "sample", OverflowPolicy(7): "overflowpolicy(7)"} {
		if p.String() != want {
			t.Fatalf("OverflowPolicy(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
	for h, want := range map[Health]string{Healthy: "healthy", Degraded: "degraded", Quarantined: "quarantined", Health(7): "health(7)"} {
		if h.String() != want {
			t.Fatalf("Health(%d).String() = %q, want %q", int(h), h.String(), want)
		}
	}
}

// TestIngesterAfterClose pins the lifecycle contract: observing through a
// handle after Close is a counted no-op (packets land in DroppedAfterClose,
// never in the sketch), Flush degrades to a no-op, and minting a new handle
// from a closed Sharded is still a programming error that panics.
func TestIngesterAfterClose(t *testing.T) {
	s, err := NewSharded(2, ingesterTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Ingester()
	h.Observe(1)
	s.Close()

	h.Flush() // must not panic or resurrect buffers
	if err := h.FlushContext(context.Background()); err != nil {
		t.Fatalf("FlushContext after Close: %v", err)
	}

	h.Observe(2)
	h.ObserveBatch([]FlowID{2, 3})

	defer func() {
		if recover() == nil {
			t.Fatal("Ingester after Close did not panic")
		}
	}()
	defer func() {
		if got := s.NumPackets(); got != 1 {
			t.Fatalf("NumPackets = %d, want 1", got)
		}
		if st := s.Stats(); st.DroppedAfterClose != 3 {
			t.Fatalf("DroppedAfterClose = %d, want 3", st.DroppedAfterClose)
		}
	}()
	s.Ingester()
}

// TestIngesterCloseRace is the per-producer-handle analogue of
// TestShardedObserveCloseRace: every producer owns an Ingester minted before
// Close and mixes Observe with ObserveBatch while the main goroutine Closes.
// Under -race this guards the handle/Close rendezvous; the tally proves
// exactly-once-or-counted delivery — every packet whose call started before
// the Close rendezvous is drained, every later one is an after-Close drop,
// and none is counted twice. The inputs:
//
//   - mid-stream: producers run until stopped; Close lands mid-stream and
//     they keep observing after it, exercising the counted no-op path;
//   - repeated: 20 fresh sketches, each racing Close against producers that
//     send a fixed number of packets;
//   - depth4-flush: four-batch queues stay full while producers also Flush,
//     and Close waits for every producer, so the lossless Block policy must
//     drop nothing.
func TestIngesterCloseRace(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shards     int
		opts       ShardedOptions
		producers  int
		calls      int  // ingest calls per producer; 0 = until stopped after Close
		flushEvery int  // Flush every this many calls; 0 = never
		closeAfter bool // Close only once every producer has finished
		rounds     int
	}{
		{name: "mid-stream", shards: 4, opts: ShardedOptions{BatchSize: 8, QueueDepth: 2},
			producers: 8, rounds: 1},
		{name: "repeated", shards: 2, opts: ShardedOptions{BatchSize: 16},
			producers: 4, calls: 2000, rounds: 20},
		{name: "depth4-flush", shards: 3, opts: ShardedOptions{BatchSize: 32, QueueDepth: 4},
			producers: 8, calls: 20_000, flushEvery: 5000, closeAfter: true, rounds: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < tc.rounds; round++ {
				s, err := NewShardedOptions(tc.shards, ingesterTestConfig(), tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				var (
					sent  atomic.Uint64
					stop  atomic.Bool
					wg    sync.WaitGroup
					start = make(chan struct{})
				)
				for w := 0; w < tc.producers; w++ {
					h := s.Ingester() // minted before Close; observing after it is the counted no-op
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						var batch [5]FlowID
						<-start
						for i := 0; tc.calls > 0 && i < tc.calls || tc.calls == 0 && !stop.Load(); i++ {
							if i%7 == 0 {
								for j := range batch {
									batch[j] = FlowID(uint64(w)<<32 | uint64((i+j)%509))
								}
								h.ObserveBatch(batch[:])
								sent.Add(uint64(len(batch)))
							} else {
								h.Observe(FlowID(uint64(w)<<32 | uint64(i%509)))
								sent.Add(1)
							}
							if tc.flushEvery > 0 && i%tc.flushEvery == 0 {
								h.Flush()
							}
						}
					}(w)
				}
				close(start)
				switch {
				case tc.closeAfter:
					wg.Wait()
					s.Close()
				case tc.calls > 0:
					runtime.Gosched()
					s.Close()
					wg.Wait()
				default:
					time.Sleep(5 * time.Millisecond)
					s.Close()
					time.Sleep(2 * time.Millisecond) // exercise the counted no-op path under -race
					stop.Store(true)
					wg.Wait()
				}

				st := s.Stats()
				if got, want := s.NumPackets()+st.DroppedAfterClose, sent.Load(); got != want {
					t.Fatalf("round %d: NumPackets+DroppedAfterClose = %d+%d = %d, want sent = %d (lost or duplicated packets across the Close race)",
						round, s.NumPackets(), st.DroppedAfterClose, got, want)
				}
				if st.DroppedPackets != st.DroppedAfterClose {
					t.Fatalf("round %d: Block policy dropped packets beyond the after-Close cause: %+v", round, st)
				}
				if tc.closeAfter && st.DroppedPackets != 0 {
					t.Fatalf("Block policy dropped %d packets with every producer done before Close", st.DroppedPackets)
				}
				est, err := s.Estimator()
				if err != nil {
					t.Fatalf("Estimator after Close: %v", err)
				}
				if got := est.Estimate(FlowID(1), CSM); got != got {
					t.Fatalf("estimate is NaN after racing Close")
				}
				s.Close() // idempotent under racing handles too
			}
		})
	}
}

// TestIngestZeroAllocs gates the steady-state ingest path at (near) zero
// allocations per packet: batch buffers recycle through the pool and the
// block router reuses its scratch, so the only allowed allocations are the
// rare pool refills after a GC (hence the 0.01 packets/alloc tolerance
// rather than exactly zero).
func TestIngestZeroAllocs(t *testing.T) {
	s, err := NewShardedOptions(4, smallShardedConfig(), ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Ingester()
	flows := make([]FlowID, 512)
	for i := range flows {
		flows[i] = FlowID(i * 7919)
	}
	// Warm up: fault in the pool and the route scratch.
	for i := 0; i < 64; i++ {
		h.ObserveBatch(flows)
	}
	const rounds = 2000
	allocs := testing.AllocsPerRun(rounds, func() {
		h.ObserveBatch(flows)
	})
	perPacket := allocs / float64(len(flows))
	if perPacket > 0.01 {
		t.Fatalf("ingest allocates %.4f allocs/packet (%.1f/batch), want < 0.01",
			perPacket, allocs)
	}
	s.Close()
}
