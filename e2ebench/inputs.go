package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/internal/dist"
	"github.com/caesar-sketch/caesar/internal/expt"
	"github.com/caesar-sketch/caesar/internal/hashing"
	"github.com/caesar-sketch/caesar/internal/trace"
)

// Workload shapes. backbone is the paper trace's shape at expt.Medium's
// flow count; mice is a scan/flood of 1–3-packet flows sized so that
// nearly every packet misses the cache.
const (
	backboneFlows = 100_000
	miceFlows     = 1_500_000
)

// miceSizes draws 1, 2 or 3 packets per flow with mean 2.4.
func miceSizes() dist.Distribution {
	return dist.MustEmpirical("mice", []float64{0.2, 0.2, 0.6})
}

// paperConfig is the per-epoch sketch budget at the paper's ratios
// (Section 6.2), scaled to backboneFlows like expt.Medium: y = ⌊2·n/Q⌋ from
// the paper trace's mean, L counters of 20 bits in the scaled 91.55 KB,
// and M cache entries of log2(y) bits in the scaled 97.66 KB. Both replay
// workloads and the served window get the same budget.
func paperConfig(seed uint64) caesar.Config {
	f := float64(backboneFlows) / expt.PaperFlows
	y := uint64(math.Floor(2 * trace.PaperMeanFlowSize))
	return caesar.Config{
		K:             expt.K,
		Counters:      int(expt.PaperSRAMKB * f * 8192 / expt.CounterBits),
		CounterBits:   expt.CounterBits,
		CacheEntries:  int(expt.PaperCacheKB * f * 8192 / math.Log2(float64(y))),
		CacheCapacity: y,
		Seed:          seed,
	}
}

// flowTable is the generator's ground truth in a fixed order: flows
// ascending by trace flow ID, each with its 5-tuple and packet count.
type flowTable struct {
	tuples []hashing.FiveTuple
	sizes  []int
}

func newFlowTable(tr *trace.Trace) flowTable {
	ids := trace.SortedFlowIDs(tr.Truth)
	ft := flowTable{tuples: make([]hashing.FiveTuple, len(ids)), sizes: make([]int, len(ids))}
	for i, id := range ids {
		ft.tuples[i] = tr.Tuples[id]
		ft.sizes[i] = tr.Truth[id]
	}
	return ft
}

// largest returns the indices of the j largest flows, ties broken by index.
func (ft flowTable) largest(j int) []int {
	idx := make([]int, len(ft.sizes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ft.sizes[idx[a]] > ft.sizes[idx[b]] })
	if j < len(idx) {
		idx = idx[:j]
	}
	return idx
}

// replayInputs is what a replay workload presents to the program: a pcap
// capture in memory, plus the ground truth the checks compare against.
type replayInputs struct {
	pcap    []byte
	packets int
	flows   flowTable
}

// Packet caps per pass. The backbone sizes are trace.BoundedSizes: Zipf
// with the paper trace's mean of 27.3 packets per flow, its support capped
// at 10,000 packets. With trace.DefaultSizes (support 100,000) a few giant
// flows make up a seed-dependent share of the packets, so the elephants'
// relative error moved by 25% between seed sets; capped, a trace of
// 100,000 flows holds 2.56M to 2.93M packets (seeds 1–40). Cutting the shuffled arrival
// order at a fixed length below that gives every seed the same load and
// the same sharing noise n/L, so seeds differ in their flows, not their
// size.
const (
	backbonePackets = 2_500_000
	micePackets     = 3_500_000
)

// genReplay generates a trace of the given shape from seed, keeps its first
// maxPackets arrivals, and encodes them as pcap. The same arguments give
// byte-identical output.
func genReplay(flows int, sizes dist.Distribution, maxPackets int, seed uint64) (*replayInputs, error) {
	tr, err := trace.Generate(trace.GenConfig{Flows: flows, Sizes: sizes, Seed: seed})
	if err != nil {
		return nil, err
	}
	if len(tr.Packets) > maxPackets {
		tr.Packets = tr.Packets[:maxPackets]
		tr.Truth = make(map[hashing.FlowID]int, len(tr.Truth))
		for _, p := range tr.Packets {
			tr.Truth[p.Flow]++
		}
	}
	var buf bytes.Buffer
	buf.Grow(24 + 54*tr.NumPackets()) // global header + 16-byte record header + 38-byte frame
	if err := tr.WritePcap(&buf); err != nil {
		return nil, fmt.Errorf("encode pcap: %w", err)
	}
	return &replayInputs{pcap: buf.Bytes(), packets: tr.NumPackets(), flows: newFlowTable(tr)}, nil
}

// flowsPerBody is the /observe request size.
const flowsPerBody = 256

// burstFlowsPerBody is the body size of the service probe's closed-loop
// burst: large bodies keep the burst short.
const burstFlowsPerBody = 4096

// burstPackets is the size of one burst: the first 2^20 packets.
const burstPackets = 1 << 20

// serveInputs is what the service probe presents to caesar-serve:
// pre-encoded POST /observe bodies cut from the workload's packet stream in
// arrival order, plus the flow IDs each body carries, for the checks.
type serveInputs struct {
	bodies [][]byte
	flows  [][]caesar.FlowID
	burst  *serveInputs // the first burstPackets packets in burstFlowsPerBody-flow bodies
}

// bodiesOf cuts a packet stream of flow IDs into /observe bodies of per
// flows ({"flows":[id,...]}); a short tail is dropped.
func bodiesOf(ids []caesar.FlowID, per int) *serveInputs {
	in := &serveInputs{}
	for i := 0; i+per <= len(ids); i += per {
		chunk := ids[i : i+per]
		b := make([]byte, 0, 10+21*per)
		b = append(b, `{"flows":[`...)
		for j, id := range chunk {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(id), 10)
		}
		b = append(b, "]}"...)
		in.bodies = append(in.bodies, b)
		in.flows = append(in.flows, chunk)
	}
	return in
}
