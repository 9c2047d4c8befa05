#!/usr/bin/env python3
"""ShelfSim repository benchmark.

Builds the measuring binary (shelfbench/) from the checkout's sources
into .bench_build/, then runs one workload:

    python3 shelfbench/run.py --workload fig10-sweep --seed 1 \
        --seconds 15 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones (spans are kept under
.bench_build/spans/). The exit code is 0 only when every
correctness check passed.

    python3 shelfbench/run.py --self-test

checks the benchmark's own comparison: a doctored baseline and a
doctored result must each make a run fail, a clean run must pass,
and the pinned baseline file must be left untouched.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "shelfbench")
RUN_DIR = os.path.join(".bench_build", "run")
SPANS_DIR = os.path.join(".bench_build", "spans")
EXPECTED = os.path.join("shelfbench", "expected.json")
WORKLOADS = ("fig10-sweep", "long-cells", "serve-isolated")
# A run measures for --seconds and then verifies; well below the
# 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the binary; returns its path or None."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "shelfbench", "-B", BUILD_DIR] + gen,
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("shelfbench: %s: %s" % (" ".join(cmd), e))
            return None
        if proc.returncode != 0:
            log("shelfbench: build step failed: %s" % " ".join(cmd))
            return None
    binary = os.path.join(BUILD_DIR, "shelfbench")
    return binary if os.path.isfile(binary) else None


def clean_env():
    # The library reads SHELFSIM_* variables in some paths; the
    # benchmark passes everything as arguments instead.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("SHELFSIM_")}


def run_binary(binary, workload, seed, seconds, trace, expected,
               extra=()):
    """Run one workload; returns (exit code, stdout text)."""
    work = os.path.join(RUN_DIR, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--expected", expected] + list(extra)
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, "%s-seed%d.jsonl" % (workload, seed))]
    # Own process group, so a timeout also stops isolated workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            env=clean_env(), text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("shelfbench: %s timed out" % workload)
        shutil.rmtree(work, ignore_errors=True)
        return 124, ""
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def self_test(binary):
    """The comparison must be able to fail, and must not write its
    own baseline."""
    os.makedirs(os.path.join(".bench_build", "selftest"), exist_ok=True)
    before = sha256(EXPECTED)
    with open(EXPECTED) as f:
        pins = json.load(f)

    def doctored(mutate, name):
        doc = json.loads(json.dumps(pins))
        mutate(doc["pins"]["fig10-sweep"]["1"])
        path = os.path.join(".bench_build", "selftest", name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def flip_fp(pin):
        fp = pin["fingerprint"]
        pin["fingerprint"] = ("1" if fp[0] != "1" else "2") + fp[1:]

    def bump_gain(pin):
        pin["stp_gain_pct_1dp"] = round(pin["stp_gain_pct_1dp"] + 0.1, 1)

    cases = [
        ("clean run passes", EXPECTED, (), True),
        ("doctored fingerprint baseline fails",
         doctored(flip_fp, "fingerprint.json"), (), False),
        ("doctored stp_gain_pct baseline fails",
         doctored(bump_gain, "stp_gain.json"), (), False),
        ("missing baseline fails",
         os.path.join(".bench_build", "selftest", "absent.json"), (),
         False),
        ("doctored result fails", EXPECTED, ("--doctor-result",),
         False),
    ]
    ok = True
    for label, expected, extra, want_pass in cases:
        rc, out = run_binary(binary, "fig10-sweep", 1, 1, 0, expected,
                             extra)
        res = last_json(out)
        passed = rc == 0 and res is not None and res.get("correct")
        good = passed == want_pass and res is not None
        ok &= good
        print("%s: %s (exit %d, correct=%s)" % (
            "PASS" if good else "FAIL", label, rc,
            res.get("correct") if res else None))
    unchanged = sha256(EXPECTED) == before
    ok &= unchanged
    print("%s: %s is never written by a run" % (
        "PASS" if unchanged else "FAIL", EXPECTED))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    os.chdir(ROOT)
    binary = build()
    if binary is None:
        return 3
    if args.self_test:
        return self_test(binary)
    rc, out = run_binary(binary, args.workload, args.seed, args.seconds,
                         args.trace, EXPECTED)
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
