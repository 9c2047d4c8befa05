#!/bin/sh
# End-to-end smoke test of the trace-driven workload frontend,
# driven through the real shelfsim_cli and shelfsim_trace binaries
# (ctest entry: trace_smoke).
#
# Phases:
#   1. fixtures: the committed valid/corrupt samples verify the way
#      they are documented to; both SimpleO3 text samples
#      (simpleo3_stream, simpleo3_pointer) convert and verify.
#   2. record/replay: four traces recorded with shelfsim_trace, one
#      sweep cell replaced by them (--trace-cell); every other cell
#      of the 28-cell sweep stays byte-identical to a plain sweep.
#   3. corruption: the same sweep with one trace file damaged
#      quarantines exactly that cell (TraceError in the failure
#      summary, exit 1) and leaves the other 27 rows byte-identical.
#   4. served: the trace sweep through a --serve daemon is
#      byte-identical to the local run, replays warm with zero new
#      executions, and an in-place trace edit forces a cold miss.
#   5. fabric: the same sweep through two --nodes daemons is still
#      byte-identical.

set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <shelfsim_cli> <shelfsim_trace>" >&2
    exit 2
fi

cli=$1
trc=$2
data=$(dirname "$0")/../tests/data/traces
server_pid=""
a_pid=""
b_pid=""

tmp=$(mktemp -d /tmp/shelfsim_trace_smoke.XXXXXX)

cleanup() {
    for p in $server_pid $a_pid $b_pid; do
        kill "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
    echo "trace_smoke: FAIL: $1" >&2
    exit 1
}

common="--warmup 200 --cycles 800 --threads 4"
cell=3     # the sweep cell the trace files replace
row=$((cell + 2))  # its stdout line (1 config header + 1-based)

# --- Phase 1: committed fixtures behave as documented --------------
"$trc" verify "$data/valid_small.shlftrc" >/dev/null \
    || fail "committed valid sample does not verify"
"$trc" verify "$data/corrupt_small.shlftrc" 2>"$tmp/verr" \
    && fail "committed corrupt sample verified cleanly"
grep -q "CrcMismatch" "$tmp/verr" \
    || fail "corrupt sample not diagnosed as CrcMismatch"
"$trc" verify --skip-corrupt "$data/corrupt_small.shlftrc" \
    >/dev/null || fail "skip-corrupt could not salvage the sample"
"$trc" convert --simpleo3 "$data/simpleo3_stream.trace" \
    "$tmp/imported.shlftrc" >/dev/null \
    || fail "SimpleO3 sample did not convert"
"$trc" verify "$tmp/imported.shlftrc" >/dev/null \
    || fail "converted SimpleO3 trace does not verify"
"$trc" convert --simpleo3 "$data/simpleo3_pointer.trace" \
    "$tmp/pointer.shlftrc" >/dev/null \
    || fail "SimpleO3 pointer-chase sample did not convert"
"$trc" verify "$tmp/pointer.shlftrc" >/dev/null \
    || fail "converted SimpleO3 pointer-chase trace does not verify"

# --- Phase 2: record four traces, replay them as one sweep cell ----
for t in 0 1 2 3; do
    "$trc" record --benchmark mcf --seed $((40 + t)) --insts 6000 \
        --out "$tmp/cell$t.shlftrc" >/dev/null \
        || fail "record $t failed"
done
files="$tmp/cell0.shlftrc:$tmp/cell1.shlftrc"
files="$files:$tmp/cell2.shlftrc:$tmp/cell3.shlftrc"

"$cli" --sweep --config base64 $common \
    >"$tmp/plain.out" 2>/dev/null || fail "plain sweep failed"
"$cli" --sweep --config base64 $common --trace-cell "$cell=$files" \
    >"$tmp/traced.out" 2>/dev/null || fail "trace-cell sweep failed"

grep -q "^  trace:" "$tmp/traced.out" \
    || fail "trace-backed cell row missing from report"
# All rows but the replaced one (and the geomean it shifts) must be
# byte-identical to the plain sweep.
sed "${row}d;/^geomean/d" "$tmp/plain.out" >"$tmp/plain.rest"
sed "${row}d;/^geomean/d" "$tmp/traced.out" >"$tmp/traced.rest"
cmp -s "$tmp/plain.rest" "$tmp/traced.rest" \
    || fail "trace cell perturbed other sweep rows"

# --- Phase 3: a corrupted trace quarantines exactly its own cell ---
"$trc" corrupt "$tmp/cell1.shlftrc" "$tmp/cell1.bad.shlftrc" \
    --at 90 --xor 85 >/dev/null || fail "corrupt tool failed"
bad="$tmp/cell0.shlftrc:$tmp/cell1.bad.shlftrc"
bad="$bad:$tmp/cell2.shlftrc:$tmp/cell3.shlftrc"

"$cli" --sweep --config base64 $common --trace-cell "$cell=$bad" \
    >"$tmp/poison.out" 2>"$tmp/poison.err" \
    && fail "sweep with a corrupt trace exited zero"
[ "$(grep -c QUARANTINED "$tmp/poison.out")" -eq 1 ] \
    || fail "want exactly 1 quarantined cell"
sed -n "${row}p" "$tmp/poison.out" | grep -q QUARANTINED \
    || fail "wrong cell quarantined"
grep -q "TraceError" "$tmp/poison.err" \
    || fail "failure summary does not name the TraceError"
grep -q "quarantined" "$tmp/poison.err" \
    || fail "missing quarantine summary line"
sed "${row}d;/^geomean/d" "$tmp/poison.out" >"$tmp/poison.rest"
cmp -s "$tmp/traced.rest" "$tmp/poison.rest" \
    || fail "corrupt cell perturbed healthy sweep rows"

# --- Phase 4: served trace sweep: cold, warm, and after an edit ----
sock="$tmp/sock"
cache="$tmp/cache"
"$cli" --serve "$sock" --cache-dir "$cache" 2>"$tmp/server.log" &
server_pid=$!
tries=0
while [ ! -S "$sock" ]; do
    tries=$((tries + 1))
    [ "$tries" -lt 100 ] || fail "server socket never appeared"
    sleep 0.1
done

counter() {
    "$cli" --serve-stats "$sock" \
        | tr ',{' '\n\n' | grep "\"$1\"" | cut -d: -f2
}

served="--connect $sock --cache-dir $cache"
"$cli" --sweep --config base64 $common --trace-cell "$cell=$files" \
    $served >"$tmp/cold.out" 2>/dev/null \
    || fail "cold served trace sweep failed"
cmp -s "$tmp/traced.out" "$tmp/cold.out" \
    || fail "cold served output differs from local run"
[ "$(counter serve.jobs_executed)" -eq 28 ] \
    || fail "cold run did not execute all 28 cells"

"$cli" --sweep --config base64 $common --trace-cell "$cell=$files" \
    $served >"$tmp/warm.out" 2>/dev/null \
    || fail "warm served trace sweep failed"
cmp -s "$tmp/cold.out" "$tmp/warm.out" \
    || fail "warm output not byte-identical to cold"
[ "$(counter serve.jobs_executed)" -eq 28 ] \
    || fail "warm run re-executed trace-backed cells"

# An in-place edit must change the cell's identity: same command,
# one fresh execution (content-addressed, not path-addressed).
"$trc" corrupt "$tmp/cell2.shlftrc" "$tmp/cell2.shlftrc" \
    --at 30 --xor 1 >/dev/null || fail "in-place edit failed"
"$trc" verify --skip-corrupt "$tmp/cell2.shlftrc" >/dev/null \
    || fail "edited trace unreadable even in skip mode"
# The edit flipped a byte inside a checksummed chunk, so the strict
# replay quarantines that cell; what matters here is identity: the
# daemon saw a *new* job key (a cache miss), not a warm hit.
"$cli" --sweep --config base64 $common --trace-cell "$cell=$files" \
    $served >"$tmp/edit.out" 2>/dev/null || true
[ "$(counter serve.cache_miss)" -gt 28 ] \
    || fail "edited trace did not change the job identity"
"$cli" --serve-shutdown "$sock" >/dev/null 2>&1 \
    || fail "server shutdown failed"
wait "$server_pid" || fail "server exited nonzero"
server_pid=""

# Restore the pristine cell2 for the fabric phase.
"$trc" record --benchmark mcf --seed 42 --insts 6000 \
    --out "$tmp/cell2.shlftrc" >/dev/null || fail "re-record failed"

# --- Phase 5: the same sweep through a two-node fabric -------------
"$cli" --serve "$tmp/a.sock" --cache-dir "$tmp/acache" \
    2>"$tmp/a.log" &
a_pid=$!
"$cli" --serve "$tmp/b.sock" --cache-dir "$tmp/bcache" \
    2>"$tmp/b.log" &
b_pid=$!
tries=0
while [ ! -S "$tmp/a.sock" ] || [ ! -S "$tmp/b.sock" ]; do
    tries=$((tries + 1))
    [ "$tries" -lt 100 ] || fail "fabric sockets never appeared"
    sleep 0.1
done

"$cli" --sweep --config base64 $common --trace-cell "$cell=$files" \
    --nodes "a=$tmp/a.sock,b=$tmp/b.sock" \
    >"$tmp/fabric.out" 2>/dev/null || fail "fabric trace sweep failed"
cmp -s "$tmp/traced.out" "$tmp/fabric.out" \
    || fail "fabric output differs from local run"

"$cli" --serve-shutdown "$tmp/a.sock" >/dev/null 2>&1 || true
"$cli" --serve-shutdown "$tmp/b.sock" >/dev/null 2>&1 || true
wait "$a_pid" 2>/dev/null || true
wait "$b_pid" 2>/dev/null || true
a_pid=""
b_pid=""

echo "trace_smoke: OK (28-cell sweep, 1 trace cell, quarantine +" \
     "serve + fabric byte-identical)"
