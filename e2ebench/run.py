#!/usr/bin/env python3
"""Builds and runs the xtc end-to-end typecheck benchmark (README.md).

Run from the repository root:

  python3 e2ebench/run.py --workload warm_repeat --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --selftest

The first run configures and builds a Release build of src/ and the harness
under $CARGO_TARGET_DIR (default .bench_build) in the directory e2ebench/;
later runs only rebuild what changed. Build output goes to stderr; the
harness's own output, ending in one JSON line, goes to stdout. The exit code
is the harness's: nonzero on a wrong verdict, a failed request or a failed
workload self-check.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2ebench"


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no xtc sources at {ROOT / 'src'}; run from a full checkout")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(bdir), "-j", jobs,
                   "--target", target]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / target


def source_digest():
    """sha256 over the paths and bytes of src/ and the benchmark's files."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the generator and oracle tests")
    args = parser.parse_args()

    if args.selftest:
        exe = build("e2ebench_test")
        sys.exit(subprocess.run([str(exe)], stdout=sys.stderr).returncode)
    if not args.workload:
        parser.error("--workload is required")

    exe = build("xtc_e2ebench")
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--commit={commit()}", f"--source={source_digest()}"]
    if args.trace:
        cmd.append(f"--spans-out={build_dir() / f'spans-{args.workload}.tsv'}")
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
