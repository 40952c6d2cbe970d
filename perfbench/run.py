#!/usr/bin/env python3
r"""Build and run the repository benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-tables --seed 1 \
        --seconds 30 --trace 0

Configures and builds perfbench/ (which compiles the bvc libraries from
src/) in Release mode under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the trace-folder self-test once per build,
then runs the perfbench binary with the checkout's git SHA and source
digest. Its stdout ends with an environment stamp line and one JSON result
line; the exit code is the binary's (0 only when
every correctness gate passed). Build output goes to stderr.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_digest():
    """SHA-256 over what a run executes: src/, the perfbench sources, its
    build file and its references."""
    digest = hashlib.sha256()
    paths = [BENCH_DIR / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR / "src", BENCH_DIR / "reference"):
        paths += sorted(p for p in top.rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, with "-dirty" when tracked files differ from it,
    or "none" when the checkout is not a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        done = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        if git("rev-parse", "--show-toplevel") != str(ROOT):
            return "none"
        sha = git("rev-parse", "--short=12", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except OSError:  # no git program
        return "none"
    if sha is None:
        return "none"
    return sha + ("-dirty" if dirty else "")


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no bvc sources under src/; run from a full checkout", 2)
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("cmake configure failed", 2)
    compile_cmd = ["cmake", "--build", str(out), "-j", "4",
                   "--target", "perfbench"]
    if subprocess.run(compile_cmd, cwd=ROOT, stdout=sys.stderr).returncode:
        fail("build failed", 2)
    binary = out / "perfbench"
    marker = out / "selftest.ok"
    if not marker.exists() or marker.stat().st_mtime < binary.stat().st_mtime:
        if subprocess.run([str(binary), "--selftest"], cwd=ROOT,
                          stdout=sys.stderr).returncode:
            fail("trace-folder self-test failed", 4)
        marker.touch()
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-tables", "svc-jobs", "netsim-1k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    command = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--source-digest", source_digest(),
        "--git-sha", git_sha(),
        "--scratch-dir", str(out / "scratch"),
        "--reference-dir", str(BENCH_DIR / "reference"),
    ]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 5)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
