#!/usr/bin/env python3
"""Builds the end-to-end detection benchmark from source and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wiki_batch --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --prepare      # build + model cache only
    python3 perfbench/run.py --self-test    # percentile helper test

Everything the benchmark builds or writes lives under .bench_build/ in the
checkout: the CMake tree, the model cache it owns (seeded read-only from
.taste_model_cache; a checkpoint that does not load is retrained there, never
in the tracked tree), and one JSON record per run under records/.

The last line of stdout is the run's result object.
"""

import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
OUT = ROOT / ".bench_build"
CMAKE_DIR = OUT / "cmake"
MODELS = OUT / "models"
RECORDS = OUT / "records"
PREPARED = MODELS / "prepared"  # holds inputs_digest() of the last prepare
COMMITTED_MODELS = ".taste_model_cache"
WORKLOADS = ("wiki_batch", "git_batch", "wide_batch", "fleet_batch")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout):
    """Runs `cmd` in its own process group with stdout sent to stderr, and
    kills the whole group if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("run from the root of a source checkout (no CMakeLists.txt/src)")
    if not (CMAKE_DIR / "build.ninja").is_file():
        if call(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR), "-G",
                 "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 600) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if call(["cmake", "--build", str(CMAKE_DIR), "--target", target, "-j",
             jobs], 900) != 0:
        fail("build failed")
    return CMAKE_DIR / target


def inputs_digest():
    """Hash of what the prepared model cache is made from: every committed
    checkpoint and the driver source that names them."""
    h = hashlib.sha256()
    files = sorted((ROOT / COMMITTED_MODELS).glob("*"))
    for path in files + [BENCH_DIR / "driver.cc"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def prepare(driver, force):
    digest = inputs_digest()
    if not force and PREPARED.is_file() and PREPARED.read_text() == digest:
        return
    PREPARED.unlink(missing_ok=True)
    if call([str(driver), "--prepare", "--models", str(MODELS)], 900) != 0:
        fail("model preparation failed")
    PREPARED.write_text(digest)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--prepare", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(call([str(build("perfbench_stats_test"))], 60))
    driver = build("perfbench_driver")
    prepare(driver, force=args.prepare)
    if args.prepare:
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    RECORDS.mkdir(parents=True, exist_ok=True)
    record = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--models", str(MODELS), "--record", str(record)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
