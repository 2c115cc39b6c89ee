#!/usr/bin/env bash
# bench_gate.sh — compare a fresh bench run against the committed
# baseline snapshot and fail on large regressions.
#
# Usage: bench_gate.sh <baseline.json> <fresh.json>
#
# Both files are bench_json.sh (or cmd/loadbench) output. For every
# benchmark present in BOTH files, the ns/op ratio fresh/baseline is
# checked:
#
#   > 2.0x  -> regression: reported and the script exits 1
#   > 1.3x  -> warning: reported, exit status unaffected
#
# Benchmarks below a noise floor (10 ms in the baseline) are skipped:
# CI runs the suite at -benchtime=1x, single-shot timings jitter far
# beyond any useful threshold at small scales, and the snapshot may
# come from a different machine class than the runner — the benches
# that matter for regression detection (figure sweeps, DP builds,
# frontier amortization) all run tens of milliseconds to seconds.
#
# Two rules are NOT subject to the noise floor, because they gate
# determinism, not timing:
#
#   allocs_per_op  — a baseline of 0 allocs/op is a zero-allocation
#                    contract (the serve hot path); any fresh run
#                    allocating breaks it and fails the gate. Alloc
#                    counts do not jitter.
#   cost_evals_per_op — the histogram DP's bucket-cost evaluation count
#                    is an exact, machine-independent function of the
#                    code at every worker count (n(n+1)/2: one per
#                    bucket); growth beyond 5% over the snapshot fails
#                    the gate (a DP quietly pricing buckets once per
#                    level is exactly the regression wall-clock noise
#                    would hide).
#   p99_ns         — loadbench tail latency; a > 4.0x blowup is
#                    reported as a warning only (CI runner tails are
#                    too noisy to hard-gate).
#
# Benchmarks present in only one file (added or removed this PR) are
# listed but never gate. The thresholds are deliberately loose — this
# is a backstop against accidental algorithmic regressions (a DP going
# quadratic, a pool serializing, a hot path starting to allocate), not
# a microbenchmark tribunal.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <baseline.json> <fresh.json>" >&2
  exit 2
fi
BASELINE=$1 FRESH=$2

# Flatten "name ns allocs p99" rows out of the one-object-per-line JSON
# bench_json.sh writes; missing optional fields become "-".
extract() {
  awk 'match($0, /"name": "[^"]+"/) {
         name = substr($0, RSTART + 9, RLENGTH - 10)
         ns = "-"; allocs = "-"; p99 = "-"; evals = "-"
         if (match($0, /"ns_per_op": [0-9.eE+-]+/))
           ns = substr($0, RSTART + 13, RLENGTH - 13)
         if (match($0, /"allocs_per_op": [0-9.eE+-]+/))
           allocs = substr($0, RSTART + 17, RLENGTH - 17)
         if (match($0, /"p99_ns": [0-9.eE+-]+/))
           p99 = substr($0, RSTART + 10, RLENGTH - 10)
         if (match($0, /"cost_evals_per_op": [0-9.eE+-]+/))
           evals = substr($0, RSTART + 21, RLENGTH - 21)
         if (ns != "-") print name, ns, allocs, p99, evals
       }' "$1"
}

extract "$BASELINE" > /tmp/bench_gate_base.$$
extract "$FRESH" > /tmp/bench_gate_fresh.$$
trap 'rm -f /tmp/bench_gate_base.$$ /tmp/bench_gate_fresh.$$' EXIT

# An empty side is a broken pipeline, never a pass. The comparison
# below separates the two inputs with NR == FNR, which degenerates when
# the baseline contributes zero lines: every fresh row would land in
# the baseline array and the gate would compare nothing, silently
# exiting 0 — precisely when a truncated snapshot or an empty bench run
# most needs to fail loudly.
if ! [ -s /tmp/bench_gate_base.$$ ]; then
  echo "bench gate: no benchmark entries in baseline $BASELINE" >&2
  exit 2
fi
if ! [ -s /tmp/bench_gate_fresh.$$ ]; then
  echo "bench gate: no benchmark entries in fresh run $FRESH" >&2
  exit 2
fi

# Every regression is reported before the gate exits — the END block is
# the only exit, so a PR that slows five benchmarks sees all five in
# one CI run instead of fixing them serially.
awk -v floor=10000000 '
  NR == FNR { base[$1] = $2; balloc[$1] = $3; bp99[$1] = $4; bevals[$1] = $5; next }
  {
    fresh[$1] = $2
    if (!($1 in base)) { added++; next }

    # Zero-allocation contract: never skipped, allocs are exact.
    if (balloc[$1] == "0" && $3 != "-" && $3 + 0 > 0) {
      printf("ALLOC REGRESSION %s: 0 -> %s allocs/op (hot path now allocates)\n", $1, $3)
      bad++
    }

    # DP work counter: exact on the serial benchmark pool, so it is
    # never skipped as noise; > 1.05x means the pruning got weaker.
    if (bevals[$1] != "-" && bevals[$1] + 0 > 0 && $5 != "-" && $5 / bevals[$1] > 1.05) {
      printf("COST-EVAL REGRESSION %s: %.0f -> %.0f cost evals/op (%.2fx)\n", $1, bevals[$1], $5, $5 / bevals[$1])
      bad++
    }

    # Tail latency: warn only.
    if (bp99[$1] != "-" && bp99[$1] + 0 > 0 && $4 != "-" && $4 / bp99[$1] > 4.0)
      printf("warning    %s: p99 %.0f -> %.0f ns (%.2fx)\n", $1, bp99[$1], $4, $4 / bp99[$1])

    if (base[$1] < floor) { skipped++; next }
    ratio = $2 / base[$1]
    if (ratio > 2.0) {
      printf("REGRESSION %s: %.0f -> %.0f ns/op (%.2fx)\n", $1, base[$1], $2, ratio)
      bad++
    } else if (ratio > 1.3) {
      printf("warning    %s: %.0f -> %.0f ns/op (%.2fx)\n", $1, base[$1], $2, ratio)
      warned++
    }
  }
  END {
    for (n in base) if (!(n in fresh)) removed++
    printf("bench gate: %d compared, %d below noise floor, %d added, %d removed, %d warnings, %d regressions\n",
           FNR - added, skipped, added, removed, warned, bad)
    if (bad > 0) exit 1
  }' /tmp/bench_gate_base.$$ /tmp/bench_gate_fresh.$$
