// Command caesar-bench regenerates the paper's evaluation artifacts: every
// figure and table of Section 6 plus the repository's ablations, at a
// selectable scale.
//
// Usage:
//
//	caesar-bench [-scale small|medium|paper] [-seed N] [-run id[,id...]] [-list] [-json]
//	caesar-bench -perf [-perf-out BENCH_PR3.json] [-perf-count 5]
//	caesar-bench -perf-query [-perf-out BENCH_PR5.json] [-perf-count 5]
//	caesar-bench -perf-ingest [-perf-out BENCH_PR8.json] [-perf-count 5]
//	caesar-bench -perf-matrix [-cpus 1,2,4,8] [-perf-out BENCH_PR10.json] [-perf-count 5]
//	caesar-bench bench-diff OLD.json NEW.json
//
// Experiment ids follow the DESIGN.md index (fig3..fig8, tbl-*, abl-*);
// -list prints them all, -run all (default) runs everything in order, and
// -json emits one JSON object per experiment for machine consumption.
// -perf instead runs the ingest-path micro-benchmarks (see perf.go) and
// writes the machine-readable perf report committed as BENCH_PR3.json;
// -perf-query runs the query-path (bulk estimation) benchmarks (see
// query.go) and writes the report committed as BENCH_PR5.json;
// -perf-ingest runs the line-rate ingest pipeline benchmarks — parallel
// hand-off, block vs scalar shard routing, queue-depth sweep, and
// end-to-end pcap replay (see ingest.go) — and writes BENCH_PR8.json;
// -perf-matrix runs the flow-ID-stage and fused-pipeline benchmarks over
// the -cpus GOMAXPROCS matrix (see matrix.go) and writes BENCH_PR10.json.
//
// The bench-diff subcommand compares two committed BENCH_*.json reports
// benchmark by benchmark, flagging deltas that exceed each side's observed
// run-to-run noise envelope (see benchdiff.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/caesar-sketch/caesar/internal/expt"
)

func main() {
	// Subcommand dispatch precedes flag parsing: bench-diff has positional
	// file arguments, not flags.
	if len(os.Args) > 1 && os.Args[1] == "bench-diff" {
		if len(os.Args) != 4 {
			fatal(fmt.Errorf("usage: caesar-bench bench-diff OLD.json NEW.json"))
		}
		if err := runBenchDiff(os.Args[2], os.Args[3]); err != nil {
			fatal(err)
		}
		return
	}

	var (
		scaleName  = flag.String("scale", "small", "experiment scale: small, medium, or paper")
		seed       = flag.Uint64("seed", 1, "workload seed")
		run        = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		jsonOut    = flag.Bool("json", false, "emit one JSON object per experiment instead of text")
		perf       = flag.Bool("perf", false, "run the ingest-path micro-benchmarks and write a perf report instead of experiments")
		perfQuery  = flag.Bool("perf-query", false, "run the query-path micro-benchmarks and write a perf report instead of experiments")
		perfIngest = flag.Bool("perf-ingest", false, "run the line-rate ingest pipeline benchmarks and write a perf report instead of experiments")
		perfMatrix = flag.Bool("perf-matrix", false, "run the flow-ID and fused-pipeline benchmarks over a GOMAXPROCS matrix and write a perf report instead of experiments")
		cpusFlag   = flag.String("cpus", "1,2,4,8", "comma-separated GOMAXPROCS values for the -perf-matrix CPU matrix")
		perfOut    = flag.String("perf-out", "", "perf report output path (default BENCH_PR3.json with -perf, BENCH_PR5.json with -perf-query, BENCH_PR8.json with -perf-ingest, BENCH_PR10.json with -perf-matrix)")
		perfCount  = flag.Int("perf-count", 5, "benchmark repetitions per entry (with -perf/-perf-query/-perf-ingest/-perf-matrix)")
	)
	flag.Parse()

	perfModes := 0
	for _, m := range []bool{*perf, *perfQuery, *perfIngest, *perfMatrix} {
		if m {
			perfModes++
		}
	}
	if perfModes > 1 {
		fatal(fmt.Errorf("-perf, -perf-query, -perf-ingest, and -perf-matrix are mutually exclusive"))
	}
	if *perf {
		out := *perfOut
		if out == "" {
			out = "BENCH_PR3.json"
		}
		runPerf(out, *perfCount)
		return
	}
	if *perfQuery {
		out := *perfOut
		if out == "" {
			out = "BENCH_PR5.json"
		}
		runQueryPerf(out, *perfCount)
		return
	}
	if *perfIngest {
		out := *perfOut
		if out == "" {
			out = "BENCH_PR8.json"
		}
		runIngestPerf(out, *perfCount)
		return
	}
	if *perfMatrix {
		out := *perfOut
		if out == "" {
			out = "BENCH_PR10.json"
		}
		cpus, err := parseCPUList(*cpusFlag)
		if err != nil {
			fatal(err)
		}
		runMatrixPerf(out, *perfCount, cpus)
		return
	}

	if *list {
		for _, e := range expt.All() {
			fmt.Printf("%-10s  %s\n", e.ID, e.Title)
		}
		return
	}

	scale, err := expt.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	scale.Seed = *seed

	var selected []expt.Experiment
	if *run == "all" {
		selected = expt.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := expt.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	start := time.Now()
	w, err := expt.BuildWorkload(scale)
	if err != nil {
		fatal(err)
	}
	if !*jsonOut {
		fmt.Printf("workload [%s]: %s\n", scale.Name, w.Trace.Summarize())
		fmt.Printf("scaled config: L=%d (%0.2f KB SRAM), M=%d (%.2f KB cache), y=%d, k=%d (built in %v)\n\n",
			w.L, w.SRAMKB, w.M, w.CacheKB, w.Y, expt.K, time.Since(start).Round(time.Millisecond))
	}

	enc := json.NewEncoder(os.Stdout)
	for _, e := range selected {
		t0 := time.Now()
		r, err := e.Run(w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if *jsonOut {
			if err := enc.Encode(r); err != nil {
				fatal(err)
			}
			continue
		}
		fmt.Println(r)
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caesar-bench:", err)
	os.Exit(1)
}
