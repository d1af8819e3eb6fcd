#!/usr/bin/env python3
"""STGSim end-to-end benchmark: build the benchmark binary, run one
workload, print its metrics.

    python3 perfbench/run.py --workload am_scale --seed 1 --seconds 40

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/ (or
$CARGO_TARGET_DIR). The binary writes traces and its temporary
result caches under .bench_out/.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
the traced variant and prints every per-layer metric (0 for a layer the
workload does not exercise). setup_s is the median, over several fresh
launches of the binary in --setup-only mode, of the time from launch to
the binary reporting ready for its first timed operation.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. On any error the script exits
non-zero without printing it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_LAUNCHES = 21
# The run must end within this many seconds of its start (build excluded).
RUN_DEADLINE_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the binary; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("STGSim sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs,
                      "--target", "stgsim_perfbench"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                fail("build failed; see " + log_path)
    return os.path.join(out, "stgsim_perfbench")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def setup_seconds(cmd, deadline):
    """Median wall time from launching the binary to its "ready" line."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--setup-only"], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if line.strip() != "ready" or rc != 0:
            fail("set-up launch failed")
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one pass (the benchmark's own test)")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    binary = build()
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--golden", os.path.join(HERE, "golden.json")]
    if args.smoke:
        cmd.append("--smoke")

    setup_s = setup_seconds(cmd, deadline) if args.trace == 0 else None

    run_cmd = cmd + ["--trace", str(args.trace), "--commit", commit_id()]
    try:
        proc = subprocess.run(run_cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("the benchmark binary did not finish in time")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if (proc.returncode != 0 or not lines
            or not lines[-1].startswith("result ")):
        fail("the benchmark binary exited with code %d" % proc.returncode)
    result = json.loads(lines[-1][len("result "):])

    listed = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    units = {m["name"]: m["unit"] for m in listed}
    measured = dict(result["metrics"])
    if setup_s is not None:
        measured["setup_s"] = setup_s
    unknown = sorted(set(measured) - set(units))
    if unknown:
        fail("the benchmark binary reported metrics BENCHMARK.json does "
             "not list: " + ", ".join(unknown))
    missing = sorted(set(units) - set(measured))
    if args.trace == 0 and missing:
        fail("the benchmark binary did not report: " + ", ".join(missing))
    # Per-layer metrics of a layer this workload does not exercise are 0.
    metrics = {name: {"value": measured.get(name, 0.0), "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
