"""Shared pieces of the CAPsim benchmark: paths, build, statistics,
reference digests, run records.  Used by run.py and selftest.py."""

import glob
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE_DIR = os.path.join(HERE, "reference")
HISTORY = os.path.join(HERE, "history.jsonl")
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = ("cache-sweep", "iq-sweep", "cache-dram", "serve-mix")
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def log(*parts):
    print("capbench:", *parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, root, "capbench")


def build():
    """Configure (once) and build the capbench and capsim binaries from
    the sources of this checkout; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found next to the benchmark "
             "(expected %s)" % os.path.join(ROOT, "src"))
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", bdir, "--target", "capbench", "capsim",
               "-j", jobs], "build")
    return bdir


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          env=child_env())
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("%s failed (exit %d)" % (what, proc.returncode))


def child_env():
    """The environment minus every CAPSIM_* knob, so no run length,
    worker count or instrumentation leaks in from the caller, and with
    temporary files (the compiler's too) kept inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CAPSIM_")}
    env["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


# ---------------------------------------------------------------- stats

def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of @p values."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n values
    (ties aside)."""
    return n - max(1, math.ceil(q * n))


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.mean(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# What the calibration kernel (capbench.cc, calibrationSeconds) takes at
# the reference speed.  Host times are reported at that speed.
CAL_REF_S = 0.010


def speed_scale(cal_s):
    """Factor that brings a host time measured between the calibrations
    @p cal_s (kernel seconds) to the reference speed."""
    return CAL_REF_S / mean(cal_s)


# ----------------------------------------------------------- references

def digest_bytes(text):
    """Digest of a served job's output bytes."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, workload + ".json")


def load_reference(workload):
    """Committed digests of @p workload: {"params", "seeds"}, or None."""
    path = reference_path(workload)
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def stale_reference(workload, recorded, now):
    """Digests recorded under other run parameters cannot judge this
    run: refuse to measure rather than compare against them."""
    fail("%s was recorded with params %s, the benchmark now runs %s; "
         "re-record it (run.py --record-references)"
         % (os.path.relpath(reference_path(workload), ROOT), recorded, now))


def count_mismatches(got, expected):
    """Failed ops of one repetition: rows (or jobs) whose digest differs
    from the expected one, plus any missing or extra."""
    bad = sum(1 for g, e in zip(got, expected) if g != e)
    return bad + abs(len(got) - len(expected))


# -------------------------------------------------------------- records

def source_digest():
    """SHA-256 over the simulator's sources: identifies the program
    measured even where the checkout is not a git repository."""
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools"):
        files += glob.glob(os.path.join(ROOT, top, "**", "*"), recursive=True)
    return files_digest(files)


def bench_digest():
    """SHA-256 over the benchmark's own code and BENCHMARK.json (not its
    records or references): identifies the benchmark that measured."""
    files = [os.path.join(ROOT, "BENCHMARK.json")]
    for pattern in ("*.py", "*.cc", "*.h", "CMakeLists.txt"):
        files += glob.glob(os.path.join(HERE, pattern))
    return files_digest(files)


def files_digest(files):
    h = hashlib.sha256()
    for path in sorted(p for p in files if os.path.isfile(p)):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler(bdir):
    cache = os.path.join(bdir, "CMakeCache.txt")
    cxx = "c++"
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
    except OSError:
        pass
    try:
        proc = subprocess.run([cxx, "--version"], capture_output=True,
                              text=True, timeout=10)
        return proc.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return cxx


def host_fingerprint(bdir):
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "bench_sha256": bench_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": compiler(bdir),
        "build_type": BUILD_TYPE,
    }


def append_history(record):
    """Append one run record; the history is never rewritten."""
    with open(HISTORY, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def utc_now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
