#!/usr/bin/env python3
"""Builds and runs the incdb benchmark for one workload.

Run from the root of an incdb checkout:

    python3 perfbench/run.py --workload paper_dense --seed 1 --seconds 10 --trace 0

It configures and builds perfbench/ (which compiles the engine from src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
incdb_perfbench. The binary's standard output is passed through; its last
line is the result object. Build logs go to standard error. Every file the
run writes stays under the build directory.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("paper_dense", "census_reopen", "ingest_recent")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest(root):
    """SHA-256 over the engine and benchmark sources (paths and bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build(root, build_dir, env):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "incdb_perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no incdb sources under " + root + "/src; run from an incdb checkout")
    build_dir = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    tmp_dir = os.path.join(build_dir, "tmp")
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    build(root, build_dir, env)
    command = [os.path.join(build_dir, "incdb_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--git-sha", git_sha(root), "--src-digest", src_digest(root)]
    # A SIGTERM ends this script through the finally clause below, which
    # stops the benchmark process before removing its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    proc = None
    try:
        proc = subprocess.Popen(command, env=env, cwd=root)
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
