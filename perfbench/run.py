#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload jetty-cold --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) under .bench_build/; later runs
reuse the build. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("jetty-cold", "alias-fanout", "yso-serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def source_digest(root):
    """Digest of the sources the benchmark binary is built from (src/ and
    perfbench/). The deterministic-count references are kept per digest, so
    runs are compared only with runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(p for p in (root / top).rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    state = root / ".bench_build"
    binary = build(root, state / "cmake")

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--state", str(state), "--code-id", source_digest(root)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are wrong")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
