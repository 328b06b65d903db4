#!/usr/bin/env python3
"""Builds and runs the pbc benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (which compiles ../src) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
benchmark; its last stdout line is the result JSON. The second form runs the
benchmark's self-tests on smoke-sized workloads.
"""
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["check-sweep", "pbft-pipeline", "ledger-contended"]
# Full-size units per workload for the trace-coverage checks: a few seconds
# of work per pass, so host noise stays well below the limits below.
COVERAGE_UNITS = {"check-sweep": "1", "pbft-pipeline": "8",
                  "ledger-contended": "64"}
# Most of a traced unit must sit inside some layer's span ...
MAX_ROOT_SHARE = 0.15
# ... and tracing may not change the measured time by more than this.
MAX_TRACE_OVERHEAD = 0.3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds pbc_perfbench; returns its path or None."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: pbc sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "pbc_perfbench",
                      "-j", jobs])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("error: build step failed: " + " ".join(cmd))
                return None
    return os.path.join(out, "pbc_perfbench")


def run_bench(binary, args, capture=False):
    cmd = [binary] + args
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def counts_of(proc):
    for line in proc.stderr.splitlines():
        if line.startswith("counts "):
            return json.loads(line[len("counts "):])
    return None


def selftest(binary):
    """Smoke gates, determinism of counts, seed sensitivity, metric names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    bad = run_bench(binary, ["--workload", "check-sweep", "--bogus", "1"],
                    capture=True)
    check(bad.returncode != 0 and not bad.stdout.strip(),
          "an unknown flag exits non-zero without a result")

    for w in WORKLOADS:
        base = ["--workload", w, "--seconds", "1", "--units", "1", "--smoke"]
        smoke = run_bench(binary, base + ["--seed", "3", "--trace", "0"],
                          capture=True)
        r = result_of(smoke)
        check(smoke.returncode == 0 and r and r["correct"] and
              r["attempted"] > 0, f"{w}: smoke run passes its correctness gate")
        check(r is not None and set(r["metrics"]) == e2e,
              f"{w}: --trace 0 prints exactly the end-to-end metrics")
        check(r is not None and all(v["value"] > 0 for v in r["metrics"].values()),
              f"{w}: every end-to-end metric is non-zero")

        runs = [run_bench(binary, base + ["--seed", s, "--trace", "1"],
                          capture=True) for s in ("3", "3", "4")]
        res = [result_of(p) for p in runs]
        cnt = [counts_of(p) for p in runs]
        check(all(p.returncode == 0 for p in runs) and all(x and x["correct"] for x in res),
              f"{w}: traced smoke runs pass their correctness gate")
        check(res[0] is not None and set(res[0]["metrics"]) == layer,
              f"{w}: --trace 1 prints exactly the per-layer metrics")
        check(cnt[0] is not None and cnt[0] == cnt[1],
              f"{w}: two traced runs with one seed give identical counts")
        check(cnt[0] is not None and cnt[2] is not None and
              cnt[0]["input_digest"] != cnt[2]["input_digest"],
              f"{w}: two seeds give different inputs")

        full = run_bench(binary, ["--workload", w, "--seconds", "1", "--units",
                                  COVERAGE_UNITS[w], "--seed", "3", "--trace", "1"],
                         capture=True)
        r = result_of(full)
        m = {k: v["value"] for k, v in r["metrics"].items()} if r else {}
        check(full.returncode == 0 and r is not None and r["correct"],
              f"{w}: full-size traced run passes its correctness gate")
        check(bool(m) and m["self_ms_per_unit.bench"] <=
              MAX_ROOT_SHARE * m["trace.traced_ms_per_unit"],
              f"{w}: time outside every layer span is under {MAX_ROOT_SHARE:.0%} of the traced time")
        check(bool(m) and abs(m["trace.overhead_frac"]) <= MAX_TRACE_OVERHEAD,
              f"{w}: |trace.overhead_frac| is at most {MAX_TRACE_OVERHEAD}")
    log("selftest: " + ("PASS" if not failures else f"{len(failures)} FAILED"))
    return 0 if not failures else 1


def main(argv):
    binary = build()
    if binary is None:
        return 1
    if argv == ["--selftest"]:
        return selftest(binary)
    args = list(argv)
    if "--trace" in args and "--spans-out" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            spans = os.path.join(build_dir(), "spans")
            os.makedirs(spans, exist_ok=True)
            name = "-".join(args[j + 1] for j in range(len(args) - 1)
                            if args[j] in ("--workload", "--seed"))
            args += ["--spans-out", os.path.join(spans, name + ".json")]
    return run_bench(binary, args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
