#!/usr/bin/env python3
"""The repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the harness (Release)
into .bench_build/perfbench, writes the workload's input into a cache under
.bench_build/inputs outside every timed region, runs the harness, and
forwards its report. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the traced replay's per-layer metrics (--trace 1).
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("youtube_cold", "hepph_sweep", "serving_zipf")
# The harness exits by itself well inside the 180 s a run may take; this
# only keeps a hung harness from outliving the benchmark.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def call(cmd, timeout):
    """Runs cmd with its output on our stderr; waits for it to end."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no source tree beside perfbench/ to build")
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        if call(["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"], 600) != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if call(["cmake", "--build", out, "--target", "af_perfbench",
             "-j", jobs], 900) != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, "af_perfbench")


def source_revision():
    """The git commit, or a digest of the sources when not in a git tree."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")

    base = build_dir()
    exe = build(os.path.join(base, "perfbench"))

    inputs = os.path.join(base, "inputs", args.workload)
    os.makedirs(inputs, exist_ok=True)
    if not os.path.isfile(os.path.join(inputs, "pairs.txt")):
        if call([exe, "gen", "--workload", args.workload,
                 "--dir", inputs], 600) != 0:
            sys.exit("perfbench: input generation failed")

    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%s" %
                        (args.workload, args.seed, args.trace))
    proc = subprocess.Popen(
        [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--dir", inputs, "--seconds", repr(args.seconds),
         "--trace", args.trace, "--report", stem + ".json",
         "--spans", stem + ".spans.csv", "--commit", source_revision()],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        sys.exit("perfbench: harness failed (exit %d)" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
