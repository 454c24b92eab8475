#!/usr/bin/env python3
"""Builds the ARCS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload batch-1m --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the `arcs` CLI (for `arcs daemon`)
and the benchmark in release mode into $CARGO_TARGET_DIR (default
.bench_build), runs the benchmark in a scratch directory under
.perfbench_work/, and removes that directory afterwards. The benchmark's
last line of standard output is the JSON result. Exits non-zero without a
result when the repository sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch-1m", "explore-wire", "ingest-durable")
FLAGS = ("workload", "seed", "seconds", "trace")


def parse(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            sys.exit(f"run.py: unexpected argument {flag!r}")
        try:
            opts[flag[2:]] = next(it)
        except StopIteration:
            sys.exit(f"run.py: {flag} needs a value")
    for name in FLAGS:
        if name not in opts:
            sys.exit(f"run.py: missing --{name}")
    for name in opts:
        if name not in FLAGS:
            sys.exit(f"run.py: unknown flag --{name}")
    if opts["workload"] not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {opts['workload']!r}; one of {', '.join(WORKLOADS)}")
    return opts


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        (os.path.join(root, "Cargo.toml"), ["-p", "arcs-cli"]),
        (os.path.join(root, "perfbench", "Cargo.toml"), []),
    ):
        if not os.path.isfile(manifest):
            sys.exit(f"run.py: {manifest} is missing; run from a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed")


def commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    opts = parse(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    build(root, target)
    work = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(target, "release", "arcs-perfbench")]
    for name in FLAGS:
        cmd += [f"--{name}", opts[name]]
    cmd += ["--arcs", os.path.join(target, "release", "arcs"), "--work-dir", work,
            "--commit", commit(root)]
    try:
        code = subprocess.run(cmd, cwd=root).returncode
    finally:
        spans = [f for f in os.listdir(work) if f.startswith("spans-")] if os.path.isdir(work) else []
        for name in spans:
            keep = os.path.join(root, ".perfbench_work", f"{opts['workload']}-seed{opts['seed']}-{name}")
            shutil.move(os.path.join(work, name), keep)
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
