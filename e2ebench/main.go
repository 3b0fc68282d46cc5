// Command e2ebench is the repository's end-to-end benchmark. One run
// generates its inputs from a seed with internal/trace, replays them
// through the program, checks every output, and prints one JSON result
// object as the last line of standard output:
//
//	e2ebench -workload replay-backbone -seed 1 -seconds 30 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 is a separate traced
// run that records a span around every layer call, writes the spans, a CPU
// profile and the per-path attribution table under -out, drives a short
// caesar-serve probe for the service-path layers, and reports the
// per-layer metrics. run.sh builds this command and caesar-serve from
// source and runs it; README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/caesar-sketch/caesar/internal/trace"
)

// Workload names, fixed: later changes name their claims by them.
const (
	wlBackbone = "replay-backbone"
	wlMice     = "replay-mice"
)

// holdOutSeed is the seed a later change re-runs to confirm a claim made
// on the seeds it was tuned on; see README.md.
const holdOutSeed = 7919

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// gateError is a failed correctness check: the run reports no metrics and
// exits non-zero.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness check failed: " + e.msg }

func gateErr(format string, args ...any) error { return &gateError{fmt.Sprintf(format, args...)} }

// outcome is what a workload run returns.
type outcome struct {
	metrics   metrics
	attempted int64
	failed    int64
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	serveBin string
	out      string // artifacts of this run
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "replay-backbone or replay-mice")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics, spans, CPU profile and attribution")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "caesar-serve binary (the traced run's service probe)")
	out := flag.String("out", ".bench_build/out", "directory for artifacts and scratch files")
	flag.Parse()
	cfg.traced = traceFlag == 1
	cfg.out = filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, traceFlag))

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		var ge *gateError
		if errors.As(err, &ge) {
			printJSON(result{Correct: false, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: metrics{}})
		}
		os.Exit(1)
	}
	printJSON(result{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics})
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// fingerprint is recorded with every result so numbers are never compared
// across machines or settings unknowingly.
func fingerprint(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"shards":     runtime.GOMAXPROCS(0), // windows are built with GOMAXPROCS shards
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"hold_out":   holdOutSeed,
	}
}

func run(cfg config) (outcome, error) {
	if cfg.seconds < 1 {
		return outcome{}, fmt.Errorf("-seconds must be >= 1")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return outcome{}, err
	}
	printJSON(map[string]any{"fingerprint": fingerprint(cfg)})

	var prof *os.File
	if cfg.traced {
		f, err := os.Create(filepath.Join(cfg.out, "cpu.pprof"))
		if err != nil {
			return outcome{}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return outcome{}, err
		}
		prof = f
	}
	o, err := dispatch(cfg)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return o, err
	}
	for name, v := range o.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return o, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return o, nil
}

func dispatch(cfg config) (outcome, error) {
	start := time.Now()
	r, err := setupReplay(cfg)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s inputs: %d packets, %d flows in %v\n",
		cfg.workload, r.in.packets, len(r.in.flows.tuples), time.Since(start).Round(time.Millisecond))
	var m metrics
	if cfg.traced {
		m, err = traceReplay(r, cfg)
	} else {
		m, err = runReplay(r, cfg.seconds)
	}
	return outcome{metrics: m, attempted: r.presented, failed: r.dropped}, err
}

// elephant_are bounds, about three times what a correct sketch gives at
// this budget (backbone ≈ 0.46, mice ≈ 15: the top 1,000 backbone flows
// hold 400 to 9,000 packets, while mice elephants are 3-packet flows under
// a sharing noise of many packets). The service probe's burst puts 2^20
// packets into one epoch, so its elephants carry more noise (backbone
// ≈ 1.15, mice ≈ 8) and have bounds of their own.
const (
	backboneAREBound      = 1.5
	miceAREBound          = 50
	backboneBurstAREBound = 3.5
	miceBurstAREBound     = 25
)

func setupReplay(cfg config) (*replayRun, error) {
	switch cfg.workload {
	case wlBackbone:
		in, err := genReplay(backboneFlows, trace.BoundedSizes(backboneFlows), backbonePackets, cfg.seed)
		if err != nil {
			return nil, err
		}
		return newReplayRun(cfg.workload, in, cfg.seed, backboneAREBound, backboneBurstAREBound), nil
	case wlMice:
		in, err := genReplay(miceFlows, miceSizes(), micePackets, cfg.seed)
		if err != nil {
			return nil, err
		}
		return newReplayRun(cfg.workload, in, cfg.seed, miceAREBound, miceBurstAREBound), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or %s)", cfg.workload, wlBackbone, wlMice)
}
