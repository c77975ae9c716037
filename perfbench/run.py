#!/usr/bin/env python3
"""Builds `cbft` and the benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload groupcount_300k --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Generated
inputs and per-job trace files go to `.bench_work`, removed when the run
ends. Build output goes to stderr; stdout carries the benchmark's report,
whose last line is one JSON object. See perfbench/README.md.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_work"


def build(env, *cargo_args):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *cargo_args],
        env=env, stdout=sys.stderr, check=True)


def commit():
    """The git commit when run from a git checkout, else `unknown`."""
    if not (ROOT / ".git").exists():
        return "unknown"
    res = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over the program's sources, naming the code measured."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("src", "crates", "vendor"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit("perfbench: run from the root of the repository")
    env = dict(os.environ)
    # Every execution knob is passed explicitly; the CI matrix's
    # environment must not leak into the measured runs.
    env.pop("CBFT_COMPUTE_THREADS", None)
    env.pop("CBFT_SEED", None)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    try:
        build(env, "--bin", "cbft")
        build(env, "--manifest-path", str(BENCH / "Cargo.toml"))
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e.returncode})")

    # The benchmark replaces this process, so stopping it stops the run;
    # it removes the work directory itself when it ends.
    shutil.rmtree(WORK, ignore_errors=True)
    bench = str(target / "release" / "perfbench")
    sys.stdout.flush()
    os.execve(bench, [bench, *sys.argv[1:],
                      "--cbft", str(target / "release" / "cbft"),
                      "--work-dir", str(WORK),
                      "--commit", commit(), "--source", source_digest()], env)


if __name__ == "__main__":
    main()
