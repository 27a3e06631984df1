#!/usr/bin/env python3
"""bfsim benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset, then drives the bfsim_perfbench binary.

--trace 0 runs SESSIONS fresh processes one after another. Each sets up
from scratch (so set-up time is sampled SESSIONS times) and then repeats
the workload's sweep for its share of S seconds. The end-to-end metrics
are medians: wall_s and mips over every repetition, setup_s and
peak_rss_mb over the sessions.

--trace 1 runs one traced session and reports the per-layer metrics.

Either way the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. A failed correctness check exits 1 instead
of printing numbers: the stats digest of every repetition and session must
match, and the traced run must reproduce the untraced sweep job for job.

--selftest builds, runs the C++ self-test (the timing wrapper is
transparent) and checks every metric name and unit the benchmark emits
against [A-Za-z0-9_.-]+ and against BENCHMARK.json.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SESSIONS = 3
# Every process this script starts must end within this many seconds of
# its own start, build excluded.
RUN_DEADLINE_S = 170.0
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]+")
WORKLOADS = ("single", "mix4", "sampled")
END_TO_END = {
    "wall_s": "s",
    "mips": "MIPS",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

HERE = os.path.dirname(os.path.abspath(__file__))


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; return the build dir."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "bfsim_perfbench", "perfbench_selftest", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir


def run_session(build_dir, args, deadline):
    """Run one bfsim_perfbench process; return its JSON result line."""
    cmd = [os.path.join(build_dir, "bfsim_perfbench")] + args
    store = None
    if "sampled" in args:
        store = tempfile.mkdtemp(prefix="store-", dir=build_dir)
        cmd += ["--store-dir", store]
    try:
        timeout = max(1.0, deadline - time.monotonic())
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    finally:
        if store:
            shutil.rmtree(store, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bfsim_perfbench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("bfsim_perfbench printed no result")
    return json.loads(lines[-1])


def timed(build_dir, opts, deadline):
    sessions = []
    for i in range(SESSIONS):
        sessions.append(run_session(build_dir, [
            "--workload", opts.workload,
            "--seed", str(opts.seed * SESSIONS + i),
            "--seconds", repr(opts.seconds / SESSIONS),
            "--trace", "0"], deadline))
    reps = [rep for s in sessions for rep in s["reps"]]
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        raise RuntimeError(f"stats digests differ across repetitions: "
                           f"{sorted(digests)}")
    failure_sets = {tuple(sorted(s["failures"])) for s in sessions}
    if len(failure_sets) != 1:
        raise RuntimeError("failed jobs differ across sessions")
    for label, error in sorted(sessions[0]["failures"].items()):
        log(f"failed job {label}: {error}")
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "mips": statistics.median(r["mips"] for r in reps),
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"]
                                         for s in sessions),
    }
    log(f"{len(reps)} repetition(s) over {SESSIONS} sessions, "
        f"digest {digests.pop()}")
    return {
        "correct": True,
        "attempted": sum(r["jobs"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
    }


def traced(build_dir, opts, deadline):
    result = run_session(build_dir, [
        "--workload", opts.workload, "--seed", str(opts.seed * SESSIONS),
        "--seconds", repr(opts.seconds), "--trace", "1"], deadline)
    return {
        "correct": True,
        "attempted": result["jobs"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def selftest(build_dir):
    subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                   check=True, stdout=sys.stderr)
    listed = subprocess.run(
        [os.path.join(build_dir, "bfsim_perfbench"), "--list-metrics"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    per_layer = dict(line.split(" ", 1) for line in listed.splitlines())
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    emitted = list(per_layer.items()) + list(END_TO_END.items())
    for name, unit in emitted:
        if not NAME_RE.fullmatch(name) or not UNIT_RE.fullmatch(unit):
            raise RuntimeError(f"bad metric name or unit: {name!r} {unit!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != per_layer:
        raise RuntimeError("BENCHMARK.json per_layer differs from the "
                           "traced run's metric list")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        raise RuntimeError("BENCHMARK.json end_to_end differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise RuntimeError("BENCHMARK.json workloads differ from run.py")
    log(f"selftest ok: {len(emitted)} metric names checked")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if not opts.selftest and opts.workload is None:
        parser.error("--workload is required")
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        build_dir = build()
        if opts.selftest:
            selftest(build_dir)
            return 0
        deadline = time.monotonic() + RUN_DEADLINE_S
        result = (traced if opts.trace else timed)(build_dir, opts,
                                                   deadline)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"error: {error}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
