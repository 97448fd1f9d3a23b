#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
library sources in src/ together with this directory (Release) under the
build directory, $CARGO_TARGET_DIR or .bench_build; later runs rebuild only
what changed. Build output goes to stderr. The benchmark prints one
"name value unit" line per metric and, as its last line, a JSON object with
the keys correct, attempted, failed and metrics. Results with their
provenance block, and the traced run's spans, are written to
<build dir>/servebench/out/.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cfg_decode", "agent_spec")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of the library and benchmark sources the binary is built from."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the repository this directory belongs to, if it is one."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=10, check=False)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unavailable"
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = git("status", "--porcelain", "--", "src", HERE.name).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "servebench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.SubprocessError) as err:
            fail(f"build failed: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "servebench"
    build(build_dir)

    command = [str(build_dir / "servebench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(build_dir / "out"),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
