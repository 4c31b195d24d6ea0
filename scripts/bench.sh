#!/bin/sh
# bench.sh — run the Figure-1 / hot-path / cluster benchmark set, update the
# committed bench trajectory (BENCH_9.json) via cmd/benchreport, and gate the
# run against the trajectories earlier PRs pinned (BENCH_4.json, BENCH_7.json):
# the script fails if any shared benchmark regressed beyond the tolerance in
# ns/op or at all in allocs/op.
#
#   scripts/bench.sh                  # update "current", keep baseline, gate
#   scripts/bench.sh -set-baseline    # also re-record the baseline
#   BENCHTIME=50000x scripts/bench.sh # longer run for stabler numbers
#   TOLERANCE=0.50 scripts/bench.sh   # looser gate (noisy CI machines)
#
# The fixed-iteration benchtime (not a duration) keeps run-to-run iteration
# counts identical so ns/op comparisons are apples-to-apples.
set -eu
cd "$(dirname "$0")/.."

BENCHES='BenchmarkSyncCallProbePath|BenchmarkHotPath|BenchmarkFigure1ProbeOverhead|BenchmarkFigure2Tunnel|BenchmarkClusterIngest|BenchmarkExemplarOverhead|BenchmarkShipFrameCodec'

go test -run '^$' -bench "$BENCHES" -benchtime "${BENCHTIME:-10000x}" -benchmem \
    . ./internal/cluster ./internal/metrics ./internal/probe \
  | go run ./cmd/benchreport -out BENCH_9.json \
      -against BENCH_4.json,BENCH_7.json -tolerance "${TOLERANCE:-0.30}" "$@"

# Exemplar-armed alloc gate: the observe path must stay allocation-free and
# the probe-path ceilings must hold with exemplar capture armed (the alloc
# tests arm the registry themselves).
go test -run 'AllocCeiling|TestExemplarObserveAllocFree' -count 1 . ./internal/metrics
