#!/usr/bin/env python3
"""Build and run the vepro end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench/ (and the vepro libraries
under src/) in Release mode into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. Build output goes to stderr.

The benchmark binary prints its metrics, a `record:` line and, last, the
result JSON. This script stores each run's record under
.perfbench/runs/, compares its results digest with earlier runs of the
same workload and seed on the same sources, and prints the result JSON
as its own last line. Exit code: 0 = all output checks passed, 1 = a
check failed, 2 = the benchmark could not run.

Other flags (--fault, --tiny, --list-specs, --trace-out) pass through to
the binary.
"""

import fcntl
import glob
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
RUNS_DIR = os.path.join(".perfbench", "runs")
# Host fields that must agree before two runs' results are compared.
HOST_KEYS = ("nproc", "workers", "compiler", "build_type", "kernels")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def fatal(message):
    log("error: " + message)
    sys.exit(2)


def check_call(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fatal("command failed (%d): %s" % (result.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fatal("vepro sources not found: run from the repository root "
              "(src/CMakeLists.txt is missing)")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            check_call(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"])
        check_call(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """SHA-256 over the sources the binary is built from (the checkout
    the benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in filenames:
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def compare_digest(record):
    """Report how the digest compares with earlier runs of the same
    sources. A mismatch does not fail the run: the encoders read
    uninitialised heap memory (perfbench/README.md, "Known defect"), so
    digests do not repeat yet."""
    same = lambda r: (r.get("workload") == record["workload"]
                      and r.get("seed") == record["seed"]
                      and r.get("tiny") == record["tiny"]
                      and r.get("fault") == ""
                      and r.get("host", {}).get("source_digest")
                      == record["host"]["source_digest"])
    like = lambda r: all(r["host"].get(k) == record["host"].get(k)
                         for k in HOST_KEYS)
    earlier = []
    for path in sorted(glob.glob(os.path.join(RUNS_DIR, "*.json"))):
        try:
            with open(path) as f:
                earlier.append(json.load(f))
        except (OSError, ValueError):
            log("warning: unreadable run record %s skipped" % path)
    earlier = [r for r in earlier if same(r)]
    unlike = [r for r in earlier if not like(r)]
    if unlike:
        log("flagged: %d earlier run(s) of these sources came from an unlike "
            "host (%s differ); not compared" % (len(unlike), "/".join(HOST_KEYS)))
    matches = [r for r in earlier if like(r)]
    differs = [r for r in matches if r["digest"] != record["digest"]]
    if differs:
        print("digest: DIFFERS from %d of %d earlier like-host run(s) of the "
              "same sources: results are not reproducible" %
              (len(differs), len(matches)))
    elif matches:
        print("digest: matches %d earlier like-host run(s) of the same sources"
              % len(matches))


def main(argv):
    binary = build()
    cmd = [binary] + argv
    if "--list-specs" in argv:
        sys.exit(subprocess.run(cmd).returncode)
    cmd += ["--commit", commit(), "--source-digest", source_digest()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fatal("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    record = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
    if record is None:
        fatal("benchmark printed no record line")

    if record["fault"] == "":
        compare_digest(record)
        os.makedirs(RUNS_DIR, exist_ok=True)
        name = "%s-seed%d-%d-%d.json" % (record["workload"], record["seed"],
                                         time.time_ns(), os.getpid())
        with open(os.path.join(RUNS_DIR, name), "w") as f:
            json.dump(record, f, indent=1)

    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main(sys.argv[1:])
