#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep_cold,sweep_warm,single_sim} \
        --seed N --seconds S --trace {0,1}

The first run configures and builds perfbench/ (the dttsim library,
the figure harness helpers and the perfbench binary) into
$CARGO_TARGET_DIR, or .bench_build when it is unset; later runs only
re-check the build. The binary's last stdout line is the result object. Before it, this script
prints the method: source fingerprint, CPU model, nproc, compiler,
build type, and informational line counts of src/, tools/ and scripts/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt here; run from the root of a "
             "dttsim checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", BUILD_JOBS,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def line_count(top):
    n = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
        for f in files:
            with open(os.path.join(dirpath, f), "rb") as fh:
                n += fh.read().count(b"\n")
    return n


def source_fingerprint():
    """git sha when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return "git:" + sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep_cold", "sweep_warm", "single_sim"])
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work,
           "--reference", os.path.join(HERE, "reference.json")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed))]
    print("method: source=%s cpu=%r nproc=%d lines src=%d tools=%d "
          "scripts=%d (informational)"
          % (source_fingerprint(), cpu_model(), os.cpu_count() or 0,
             line_count("src"), line_count("tools"), line_count("scripts")),
          flush=True)
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
