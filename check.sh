#!/bin/sh
# check.sh — the full verification gate, run before every merge:
#
#   1. go vet        standard suspicious-construct checks
#   2. go build      every package compiles
#   3. go test -race full test suite (includes TestVetABR and the
#                    determinism regression test) under the race detector
#   4. vetabr        project-specific static analysis: simclock, globalrand,
#                    maporder, rangeleak, sharedcapture, recmut, floateq,
#                    units (see docs/STATIC_ANALYSIS.md) — gated by
#                    vetabr.baseline, with a SARIF artifact written to
#                    artifacts/vetabr.sarif
#   5. suppressions  every //lint:ignore in the tree must be rule-scoped
#                    (a blanket ignore would silence future analyzers too)
#   6. equivalence   fleet runners must be byte-identical serial vs
#                    GOMAXPROCS-parallel (see docs/PERFORMANCE.md)
#   7. shards        sharded fleet aggregation must be byte-identical for
#                    any shard count (-shards 1 vs 2/4/32 fleet JSON at
#                    N=32, exact and streaming paths, under -race)
#   8. timeline      flight-recorder exports must be byte-identical
#                    across repeat runs and worker counts
#   9. transport     the transport layer's two contracts: zero-cost
#                    transport is byte-identical to no transport at every
#                    level (session, timeline golden, fleet JSON), and the
#                    transport comparison is byte-identical across worker
#                    counts and repeats with the documented delta ordering
#  10. live          the live subsystem's two contracts: zero-cost live
#                    (nil config) is byte-identical to pre-live output at
#                    every level (session stats, timeline golden, fleet
#                    JSON, shard equivalence), and the LL-ABR comparison
#                    is deterministic with the documented orderings
#  11. shaping       the offline-chunking stage's two contracts: the same
#                    seed yields a byte-identical plan at any worker count
#                    (shaping-determinism), and content without shaping
#                    keeps byte-identical manifests and chunk sizes
#                    (uniform zero-cost, pinned by the golden manifests)
#  12. cli identity  the whole paperfigs CLI (every section) prints
#                    byte-identical stdout at -parallel 1 and at the
#                    default GOMAXPROCS worker count
#  13. benchmem      fleet benchmarks and the netsim and ABR per-layer
#                    benchmarks (uplink allocation and progress sample,
#                    event queue, MPC decision, sliding percentile) compile
#                    and run once, so the allocs/op trajectory is always
#                    measurable
#  14. gofmt         every Go source file is gofmt-formatted
#
# Exits non-zero on the first failing step.
set -eu
cd "$(dirname "$0")"

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go run ./cmd/vetabr -baseline vetabr.baseline -sarif artifacts/vetabr.sarif ./..."
mkdir -p artifacts
go run ./cmd/vetabr -baseline vetabr.baseline -sarif artifacts/vetabr.sarif ./...

echo "== suppression scope (no unscoped //lint:ignore)"
# Every directive must name its rule(s): '//lint:ignore <rule>[,rule] <reason>'.
# The engine already rejects missing reasons (bad-suppression); this guards
# the other half — a bare or 'all'-scoped ignore that would also silence
# analyzers added later.
if grep -rn --include='*.go' -E '//lint:ignore([[:space:]]+all([[:space:]]|$)|[[:space:]]*$)' cmd internal; then
	echo "check.sh: unscoped //lint:ignore directive(s) above — scope each to a rule with a reason" >&2
	exit 1
fi

echo "== parallel-vs-serial equivalence (incl. fault-injection and fleet determinism)"
go test -race -count=1 \
	-run 'TestParallelEquivalence|TestCacheSweepParallelMatchesSerial|TestMapCollectsInSubmissionOrder|TestResilienceSweepDeterministic|TestResilienceSweepParallelEquivalence|TestFleetScaleParallelEquivalence|TestFleetDeterministic' \
	./internal/experiments ./internal/cdnsim ./internal/runpool ./internal/fleet

echo "== shard equivalence (-shards 1 vs -shards 4 byte-identical fleet JSON at N=32)"
go test -race -count=1 -run 'TestFleetShardEquivalence' ./internal/fleet

echo "== timeline determinism (flight-recorder exports byte-identical across runs and worker counts)"
go test -race -count=1 -run 'TestTimeline' \
	./internal/timeline ./internal/fleet ./cmd/abrsim

echo "== transport gates (zero-cost off-equivalence + deterministic delta ordering)"
go test -race -count=1 \
	-run 'TestZeroCostTransport|TestConnZeroCostTransport|TestTimelineZeroCostTransport|TestFleetZeroCostTransport|TestFleetShardEquivalenceWithTransport|TestTransportComparisonDeterminism|TestTransportDeltaOrdering' \
	./internal/netsim ./internal/player ./internal/timeline ./internal/fleet ./internal/experiments

echo "== live gates (zero-cost off-equivalence + deterministic LL orderings)"
go test -race -count=1 \
	-run 'TestLiveOffLeavesNoStats|TestFleetZeroCostLive|TestFleetShardEquivalenceLive|TestFleetLiveAggregates|TestLiveComparisonDeterminism|TestLiveModelOrdering|TestLiveDeltaOrdering|TestTimelineGoldenLive' \
	./internal/player ./internal/fleet ./internal/experiments ./internal/timeline

echo "== shaping gates (seeded plan determinism + uniform zero-cost contract)"
go test -race -count=1 \
	-run 'TestShapingDeterminism|TestLadderParallelDeterminism|TestFixedSpecKeepsUniformContract|TestGoldenMPD|TestGoldenMaster|TestGoldenMediaPlaylist' \
	./internal/shaping ./internal/experiments ./internal/manifest/dash ./internal/manifest/hls

echo "== whole-CLI worker-count identity (paperfigs -parallel 1 vs default workers, every section)"
mkdir -p artifacts
go run ./cmd/paperfigs -parallel 1 > artifacts/paperfigs-serial.txt
go run ./cmd/paperfigs > artifacts/paperfigs-parallel.txt
if ! cmp artifacts/paperfigs-serial.txt artifacts/paperfigs-parallel.txt; then
	echo "check.sh: paperfigs output depends on the worker count (diff artifacts/paperfigs-serial.txt artifacts/paperfigs-parallel.txt)" >&2
	exit 1
fi

echo "== benchmem smoke (1 iteration per fleet, netsim and ABR per-layer benchmark)"
go test -run=NONE -bench 'BenchmarkBandwidthSweep|BenchmarkSeedSweep|BenchmarkCDNCacheSweep|BenchmarkFleet|BenchmarkLiveSession' \
	-benchtime=1x -benchmem .
go test -run=NONE -bench 'BenchmarkUplinkAlloc|BenchmarkUplinkSample|BenchmarkQueue' \
	-benchtime=1x -benchmem ./internal/netsim
go test -run=NONE -bench 'BenchmarkMPCSelectCombo|BenchmarkSlidingPercentileEstimate' \
	-benchtime=1x -benchmem ./internal/abr/jointabr ./internal/abr/estimator

echo "== gofmt -l (no unformatted Go file)"
unformatted=$(gofmt -l cmd examples internal perfbench ./*.go)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "check.sh: the Go files above are not gofmt-formatted (run gofmt -w on them)" >&2
	exit 1
fi

echo "check.sh: all gates passed"
