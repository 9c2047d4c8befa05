#!/bin/sh
# Proves that the hot-path perf gate can fail (ctest entry:
# hotpath_gate_check). A copy of the committed BENCH_core.json with
# every rate raised to an impossible 10^15 per second, and every
# retired count kept, must make `bench_hotpath --check` exit 1 with
# each workload reported REGRESSED and none BEHAVIOUR DIVERGED. The
# check must leave the baseline it read untouched and write no
# BENCH_core.json of its own.

set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <bench_hotpath-binary> <BENCH_core.json>" >&2
    exit 2
fi

bin=$1
committed=$2
work=$(mktemp -d "${TMPDIR:-/tmp}/shelfsim_gate.XXXXXX")
trap 'rm -rf "$work"' EXIT

fail() {
    echo "hotpath_gate_check: $*" >&2
    exit 1
}

sed -E 's/"(cycles_per_s|sims_per_s)":[0-9.eE+-]+/"\1":1000000000000000/g' \
    "$committed" > "$work/doctored.json"
cp "$work/doctored.json" "$work/doctored.orig"
workloads=$(grep -o '"name":' "$committed" | wc -l)
doctored=$(grep -o ':1000000000000000' "$work/doctored.json" | wc -l)
[ "$workloads" -gt 0 ] || fail "no workloads in $committed"
[ "$doctored" -eq "$workloads" ] ||
    fail "doctored $doctored of $workloads rates"

rc=0
(cd "$work" && "$bin" --check doctored.json) 2> "$work/stderr" || rc=$?
[ "$rc" -eq 1 ] || { cat "$work/stderr" >&2; fail "exit code $rc, want 1"; }

regressed=$(grep -c 'REGRESSED' "$work/stderr" || true)
[ "$regressed" -eq "$workloads" ] ||
    { cat "$work/stderr" >&2; fail "$regressed of $workloads REGRESSED"; }
if grep -q 'DIVERGED' "$work/stderr"; then
    cat "$work/stderr" >&2
    fail "retired counts diverged from $committed"
fi
cmp -s "$work/doctored.json" "$work/doctored.orig" ||
    fail "--check rewrote its baseline"
[ ! -e "$work/BENCH_core.json" ] || fail "--check wrote BENCH_core.json"

echo "hotpath_gate_check: doctored baseline rejected ($workloads workloads)"
