// Monitoring: continuous per-flow measurement with a sliding window of
// epochs — a long-running collector that answers "how big was this flow
// over the last N intervals?" while traffic keeps arriving.
//
// This is the query-while-ingest pipeline in miniature: a ShardedWindow
// ingests 10 simulated intervals through a producer handle, Rotate seals
// each interval, and after every rotation the sealed epochs drive two
// detectors from the detect package — the windowed estimate of a hot flow
// (which ramps up mid-run and decays as its epochs slide out), and
// epoch-over-epoch change detection that flags the burst the moment it
// seals. The full daemon version of this loop is cmd/caesar-serve.
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/caesar-sketch/caesar"
	"github.com/caesar-sketch/caesar/detect"
)

const (
	windowEpochs = 4
	totalEpochs  = 10
	background   = 2000 // background flows per epoch
)

func main() {
	w, err := caesar.NewShardedWindow(windowEpochs, 0, caesar.Config{
		Counters:      1 << 13,
		CacheEntries:  1 << 10,
		CacheCapacity: 32,
		Seed:          8,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()

	hot := caesar.FiveTuple{SrcIP: 0x0a0a0a0a, DstIP: 0x0b0b0b0b, SrcPort: 5000, DstPort: 443, Proto: 6}.ID()
	rng := rand.New(rand.NewSource(21))
	h := w.Ingester()

	// Hot flow's per-epoch packet schedule: quiet, then a burst, then gone.
	schedule := []int{50, 50, 50, 2000, 4000, 4000, 50, 50, 50, 50}
	var truthWindow []int // actual per-epoch counts, for the report

	fmt.Printf("sliding window of %d epochs; hot flow bursts in epochs 4-6\n\n", windowEpochs)
	fmt.Println("epoch  hot pkts  window actual  window estimate  95% interval     epoch-over-epoch change")
	var pkts []caesar.FlowID // one epoch's packets, in arrival order
	for epoch := 0; epoch < totalEpochs; epoch++ {
		// Background traffic: fresh flows each epoch.
		pkts = pkts[:0]
		for f := 0; f < background; f++ {
			id := caesar.FiveTuple{
				SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
				SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 80, Proto: 6,
			}.ID()
			for p := 0; p < 1+rng.Intn(30); p++ {
				pkts = append(pkts, id)
			}
		}
		// The hot flow's scheduled load.
		for p := 0; p < schedule[epoch]; p++ {
			pkts = append(pkts, hot)
		}
		h.ObserveBatch(pkts)

		if err := w.Rotate(); err != nil {
			log.Fatal(err)
		}
		truthWindow = append(truthWindow, schedule[epoch])
		if len(truthWindow) > windowEpochs {
			truthWindow = truthWindow[1:]
		}
		actual := 0
		for _, c := range truthWindow {
			actual += c
		}
		est, iv := w.EstimateWithInterval(hot, 0.95)

		// Change detection off the two newest sealed epochs: did the hot
		// flow's rate move by more than 1000 packets between intervals?
		verdict := "steady"
		if epochs := w.Epochs(); len(epochs) >= 2 {
			prev, cur := epochs[len(epochs)-2], epochs[len(epochs)-1]
			changes := detect.Changes(prev, cur, []caesar.FlowID{hot}, caesar.CSM, 1000, 1)
			if len(changes) > 0 {
				if changes[0].Delta > 0 {
					verdict = fmt.Sprintf("ramp +%.0f", changes[0].Delta)
				} else {
					verdict = fmt.Sprintf("drop %.0f", changes[0].Delta)
				}
			}
		}
		fmt.Printf("%5d  %8d  %13d  %15.0f  [%6.0f, %6.0f]  %s\n",
			epoch+1, schedule[epoch], actual, est, iv.Lo, iv.Hi, verdict)
	}
	fmt.Println("\nthe estimate ramps with the burst and decays as hot epochs slide out")
}
