#!/usr/bin/env bash
# loadbench.sh — end-to-end HTTP load benchmark of the psynd read path.
#
# Usage: loadbench.sh [out.json]
#
# Builds the binaries, generates a dataset, starts psynd on an ephemeral
# port, builds histogram and wavelet synopses over HTTP, then drives the
# server with cmd/loadbench: single /v1/estimate, single /v1/rangesum,
# and 100-op mixed /v1/query batches. Results (qps, p50, p99 per
# scenario) land in out.json (default loadbench.json) in the
# bench_json.sh entry shape, so they merge into the same snapshot
# bench_gate.sh tracks.
#
# The script enforces the batch-amortization contract: a 100-op mixed
# batch must cost less than 5 single-estimate round trips at the median
# — otherwise /v1/query is not amortizing HTTP/JSON overhead and exists
# for nothing. (100 ops in < 5x one op = >= 20x per-op amortization.)
#
# Environment:
#   LOADBENCH_DURATION  measurement window per scenario (default 2s)
#   LOADBENCH_CONNS     concurrent connections (default 4)
set -euo pipefail

OUT=${1:-loadbench.json}
DUR=${LOADBENCH_DURATION:-2s}
CONNS=${LOADBENCH_CONNS:-4}

WORK=$(mktemp -d)
PSYND_PID=""
cleanup() {
  if [ -n "$PSYND_PID" ]; then
    kill -TERM "$PSYND_PID" 2>/dev/null || true
    wait "$PSYND_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/bin/" ./cmd/...
mkdir -p "$WORK/data" "$WORK/catalog"
"$WORK/bin/datagen" -kind mystiq -n 256 -out "$WORK/data/ds.pd"

# Ephemeral port: psynd prints the bound address on stdout.
"$WORK/bin/psynd" -addr 127.0.0.1:0 -data "$WORK/data" -catalog "$WORK/catalog" \
  -max-builds 1 > "$WORK/psynd.log" 2>&1 &
PSYND_PID=$!
ADDR=""
for _ in $(seq 1 50); do
  ADDR=$(sed -n 's/^psynd: listening on \([^ ]*\).*/\1/p' "$WORK/psynd.log")
  [ -n "$ADDR" ] && break
  sleep 0.2
done
if [ -z "$ADDR" ]; then
  echo "loadbench.sh: psynd did not start:" >&2
  cat "$WORK/psynd.log" >&2
  exit 1
fi

for family in histogram wavelet; do
  curl -sf -X POST "http://$ADDR/v1/build" \
    -d "{\"dataset\":\"ds\",\"family\":\"$family\",\"metric\":\"SSE\",\"budget\":8,\"wait\":true}" \
    | grep -q '"status":"built"'
done

"$WORK/bin/loadbench" -addr "http://$ADDR" -dataset ds -metric SSE -budget 8 \
  -domain 256 -duration "$DUR" -conns "$CONNS" -out "$OUT"
cat "$OUT"

# Batch-amortization gate: p50(QueryBatch100) < 5 * p50(Estimate).
awk '
  match($0, /"name": "[^"]+"/) { name = substr($0, RSTART + 9, RLENGTH - 10) }
  match($0, /"p50_ns": [0-9.eE+-]+/) { p50[name] = substr($0, RSTART + 10, RLENGTH - 10) }
  END {
    est = p50["LoadbenchEstimate"]; batch = p50["LoadbenchQueryBatch100"]
    if (est == "" || batch == "") { print "loadbench.sh: missing scenario results"; exit 1 }
    printf("batch amortization: 100-op batch p50 %.0f ns vs single estimate p50 %.0f ns (%.2fx)\n",
           batch, est, batch / est)
    if (batch >= 5 * est) {
      print "FAIL: 100-op /v1/query batch costs >= 5x a single estimate round trip"
      exit 1
    }
  }' "$OUT"
