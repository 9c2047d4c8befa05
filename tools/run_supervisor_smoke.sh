#!/bin/sh
# End-to-end smoke test of the supervised sweep executor, driven
# through the real shelfsim_cli binary (ctest entry: supervisor_smoke).
#
# Phases:
#   1. reference: a clean serial in-process sweep.
#   2. fault injection: the same sweep under isolation with one
#      crashing and one hanging job; healthy rows must match the
#      reference byte-for-byte, the two faulty jobs must be
#      quarantined with repro artifacts, and the exit code must
#      signal partial failure.
#   3. resume: kill the orchestrator mid-sweep (SIGKILL, so nothing
#      can clean up), then rerun with --resume on the same journal;
#      the merged output must be byte-identical to the reference and
#      already-journaled jobs must not run again. The last job of the
#      killed run hangs, so the kill always lands before the sweep
#      can finish, however late this script gets to deliver it.

set -eu

if [ "$#" -lt 1 ]; then
    echo "usage: $0 <shelfsim_cli-binary>" >&2
    exit 2
fi

cli=$1
if [ ! -x "$cli" ]; then
    echo "supervisor_smoke: '$cli' is not executable" >&2
    exit 2
fi

tmp=$(mktemp -d /tmp/shelfsim_smoke.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

# Tiny but non-trivial: 6 mixes, short runs.
sweep="--sweep 6 --warmup 400 --cycles 1600"

fail() {
    echo "supervisor_smoke: FAIL: $1" >&2
    exit 1
}

# --- Phase 1: clean serial reference -------------------------------
"$cli" $sweep --jobs 1 >"$tmp/reference.out" 2>/dev/null \
    || fail "reference sweep exited nonzero"

# --- Phase 2: injected crash + hang under isolation ----------------
rc=0
"$cli" $sweep --isolate --timeout 2 --retries 1 \
    --inject-fault '1=crash,3=hang' \
    --journal "$tmp/faulty.jsonl" \
    >"$tmp/faulty.out" 2>"$tmp/faulty.err" || rc=$?
[ "$rc" -eq 1 ] || fail "fault-injected sweep: expected exit 1, got $rc"

grep -q "QUARANTINED" "$tmp/faulty.out" \
    || fail "no quarantined rows in fault-injected output"
[ "$(grep -c QUARANTINED "$tmp/faulty.out")" -eq 2 ] \
    || fail "expected exactly 2 quarantined rows"
grep -q "repro: .*--worker" "$tmp/faulty.err" \
    || fail "no repro artifact in failure summary"
grep -q "signal 11" "$tmp/faulty.err" \
    || fail "crash not reported as signal 11"
grep -q "watchdog timeout" "$tmp/faulty.err" \
    || fail "hang not reported as watchdog timeout"

# Healthy rows must match the reference byte-for-byte.
grep -v QUARANTINED "$tmp/faulty.out" | grep "^  " >"$tmp/faulty.rows"
grep "^  " "$tmp/reference.out" >"$tmp/reference.rows"
while IFS= read -r row; do
    grep -qxF "$row" "$tmp/reference.rows" \
        || fail "healthy row diverged from reference: $row"
done <"$tmp/faulty.rows"

# --- Phase 3: SIGKILL the orchestrator mid-sweep, then resume ------
# Job 5 (the last one) hangs and no watchdog is set, so at most 5 of
# the 6 jobs can be journaled when the kill arrives.
"$cli" $sweep --isolate --jobs 1 --inject-fault '5=hang' \
    --journal "$tmp/resume.jsonl" >/dev/null 2>&1 &
pid=$!

# SIGKILL the orchestrator and the worker it is running (the hung one
# would otherwise outlive it). Stopping it first keeps it from
# spawning another worker in between.
kill_orchestrator() {
    kill -STOP "$pid" 2>/dev/null || true
    for child in $(pgrep -P "$pid"); do
        kill -9 "$child" 2>/dev/null || true
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
}

# Wait until at least one record is journaled, then pull the plug.
tries=0
while [ ! -s "$tmp/resume.jsonl" ]; do
    tries=$((tries + 1))
    [ "$tries" -lt 200 ] || { kill_orchestrator; fail "journal never grew"; }
    sleep 0.1
done
kill_orchestrator
[ -s "$tmp/resume.jsonl" ] || fail "journal empty after kill"
before=$(wc -l <"$tmp/resume.jsonl")

"$cli" $sweep --isolate --journal "$tmp/resume.jsonl" --resume \
    >"$tmp/resumed.out" 2>/dev/null \
    || fail "resumed sweep exited nonzero"
cmp -s "$tmp/reference.out" "$tmp/resumed.out" \
    || fail "resumed output differs from the clean reference"
after=$(wc -l <"$tmp/resume.jsonl")
[ "$after" -eq 6 ] || fail "journal has $after records, want 6"
[ "$after" -gt "$before" ] \
    || fail "resume did not run the unfinished jobs"

echo "supervisor_smoke: OK (resume reran $((after - before)) of 6 jobs)"
