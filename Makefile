# CAESAR development targets. `make ci` runs everything the CI workflow
# runs; the individual targets are one command each so the tier-1 verify
# (`make build test`) and the new checks stay trivially reproducible.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet lint lint-vettool lint-waivers lint-json chaos chaos-serve fuzz-smoke snapshot-compat bench-json bench-matrix bench-diff bench-smoke hashquality serve-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short skips the expensive internal/expt experiment sweeps under the race
# detector; the race-focused tests (Sharded Observe/Close stress) still run.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/caesar-lint ./...

# The same passes under the go vet driver, which also covers _test.go files
# and threads package facts (the allocfree certified sets) through .vetx.
lint-vettool:
	$(GO) build -o dist/caesar-lint ./cmd/caesar-lint
	$(GO) vet -vettool=$(CURDIR)/dist/caesar-lint ./...

# Audits every //caesar:ignore in the tree: prints file, analyzers, and
# justification; fails on waivers with no justification or naming unknown
# passes.
lint-waivers:
	$(GO) run ./cmd/caesar-lint -waivers -strict ./...

# Machine-readable findings for dashboards and diff tooling
# (schema: internal/analyzers/framework/json.go, version 1).
lint-json:
	@mkdir -p dist
	$(GO) run ./cmd/caesar-lint -json ./... > dist/lint.json
	@echo "wrote dist/lint.json"

# The fault-injection chaos suite (chaos_test.go, docs/ROBUSTNESS.md):
# overload drops, worker panics + quarantine, deadline-bounded shutdown,
# torn snapshot writes. Runs under the race detector, three times, because
# the bugs it hunts are scheduling-dependent; every run must prove the
# exact accounting invariant observed == counted + dropped.
chaos:
	$(GO) test -race -count=3 -run='^TestChaos' .

# The HTTP-level chaos suite for the self-healing service layer
# (cmd/caesar-serve/chaos_test.go, docs/SERVICE.md "Ops runbook"):
# mid-epoch worker panics healed by supervised seal+rotate within backoff
# bounds, degraded reads with coverage headers, admission-control shedding
# under Drop and Block, slow clients against the read timeouts, mid-body
# disconnects, failing checkpoint writes, and a SIGKILL + restart
# reconciliation drill whose lost-packet count must match the injected
# loss exactly.
chaos-serve:
	$(GO) test -race -count=3 -run='^TestChaosServe' ./cmd/caesar-serve

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSketchObserveEstimate -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotReadFrom -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzTornSnapshot -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzFiveTupleHash -fuzztime=$(FUZZTIME) ./internal/hashing
	$(GO) test -run='^$$' -fuzz='^FuzzReader$$' -fuzztime=$(FUZZTIME) ./internal/pcap
	$(GO) test -run='^$$' -fuzz=FuzzReaderDifferential -fuzztime=$(FUZZTIME) ./internal/pcap

# Verifies the committed CSNP golden fixtures still round-trip byte for byte
# (writer) and bit for bit (reader). Regenerate intentionally-changed
# fixtures with: go test ./internal/sketch -run TestSnapshotGolden -update
snapshot-compat:
	$(GO) test -run=TestSnapshotGoldenCompat -count=1 ./internal/sketch

# Regenerates the committed perf trajectories with 5 repetitions per
# benchmark: the ingest path (ns/op, allocs/op, shard scaling, batch-size
# sweep → BENCH_PR3.json), the query path (scalar vs bulk estimation,
# QueryAll worker scaling → BENCH_PR5.json), and the line-rate ingest
# pipeline (parallel hand-off, block vs scalar hashing, queue-depth sweep,
# end-to-end pcap replay → BENCH_PR8.json). Commit the refreshed
# file(s) when the corresponding path changes intentionally.
bench-json:
	$(GO) run ./cmd/caesar-bench -perf -perf-out BENCH_PR3.json -perf-count 5
	$(GO) run ./cmd/caesar-bench -perf-query -perf-out BENCH_PR5.json -perf-count 5
	$(GO) run ./cmd/caesar-bench -perf-ingest -perf-out BENCH_PR8.json -perf-count 5
	$(GO) run ./cmd/caesar-bench -perf-matrix -cpus 1,2,4,8 -perf-out BENCH_PR10.json -perf-count 5

# Just the flow-ID / fused-pipeline / GOMAXPROCS matrix report
# (BENCH_PR10.json), without re-running the other three suites.
bench-matrix:
	$(GO) run ./cmd/caesar-bench -perf-matrix -cpus 1,2,4,8 -perf-out BENCH_PR10.json -perf-count 5

# Compares two committed perf reports benchmark by benchmark; a delta only
# counts as a change when it clears both sides' best..worst run spread.
# Usage: make bench-diff [OLD=BENCH_PR8.json] [NEW=BENCH_PR10.json]
OLD ?= BENCH_PR8.json
NEW ?= BENCH_PR10.json
bench-diff:
	$(GO) run ./cmd/caesar-bench bench-diff $(OLD) $(NEW)

# Statistical gates on the flow-ID stage (internal/hashing/quality_test.go):
# per-input-bit avalanche for the fast keyed hash, the SHA-1 derivation, and
# the Mix64 finalizer (with a teeth test proving the thresholds reject a
# weakened mixer), KSelector chi-square uniformity, and the million-flow
# collision census for both hashes.
hashquality:
	$(GO) test -run 'TestHashQuality' -count=1 ./internal/hashing

# Fast perf gate for CI: no hot path may allocate — single-sketch ingest
# (TestSketchObserveZeroAllocs), sharded line-rate ingest
# (TestIngestZeroAllocs), bulk query (TestEstimateManyZeroAllocs), the
# fused tuple-block path (TestFlowIDZeroAllocs, plus the FlowIDer scratch
# gate in internal/hashing), and the pcap decode (TestNextPacketZeroAllocs,
# TestReadBlockZeroAllocs) are deterministic gates; the bench runs also
# surface the ns/op trend — including the fast flow-ID hash and the
# per-packet decode cost (BenchmarkReadBlock, ns/pkt) — in the job log.
bench-smoke:
	$(GO) test -run='TestSketchObserveZeroAllocs|TestEstimateManyZeroAllocs|TestIngestZeroAllocs|TestFlowIDZeroAllocs' -count=1 .
	$(GO) test -run='TestFlowIDerZeroAllocs' -count=1 ./internal/hashing
	$(GO) test -run='TestNextPacketZeroAllocs|TestReadBlockZeroAllocs' -count=1 ./internal/pcap
	$(GO) test -run='^$$' -bench='BenchmarkSketchObserve$$' -benchtime=100x -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkFlowID' -benchtime=100x -benchmem ./internal/hashing
	$(GO) test -run='^$$' -bench='BenchmarkReadBlock$$' -benchtime=100x -benchmem ./internal/pcap

# End-to-end drill of the live measurement service (docs/SERVICE.md):
# builds the real caesar-serve binary, boots it on a trace replay with
# checkpointing, queries every endpoint, SIGKILLs the process, restarts it
# from the checkpoint, and requires the sealed epochs to answer
# bit-identically across the crash.
serve-smoke:
	$(GO) test -run=TestServeSmoke -count=1 -v ./cmd/caesar-serve

ci: build vet test race lint lint-vettool lint-waivers chaos chaos-serve fuzz-smoke snapshot-compat bench-smoke hashquality serve-smoke
