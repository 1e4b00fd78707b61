#!/usr/bin/env python3
"""The lsm benchmark: builds the program from this checkout and runs one workload.

    python3 perfbench/run.py --workload paper-tables|serve-mix|large-n-sim \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Everything the benchmark builds or writes
goes under $CARGO_TARGET_DIR (default .bench_build) inside the checkout:
the CMake build, one scratch directory per run (caches, daemon socket,
trace file), the exact-counter records and a JSON record of every result
with the host fingerprint.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; every end-to-end metric of BENCHMARK.json with --trace 0, every
per-layer one with --trace 1, whatever the workload. A run whose correctness gates fail, or whose exact counters
differ from an earlier run of the same code and seed, exits 1 without a
result line.
"""
import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("paper-tables", "serve-mix", "large-n-sim")
DEADLINE_S = 175.0  # every run must end within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def die_with_parent():
    """Child pre-exec hook: the child gets SIGKILL when this process dies,
    so a killed benchmark leaves no lsmbench (and, through lsmbench's own
    hook, no daemon) behind."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(REPO, d)


def build(bdir):
    """Configures (once) and builds lsmbench, its self-tests and lsm_serve."""
    cmake_dir = os.path.join(bdir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir


def cmake_cache(cmake_dir):
    values = {}
    with open(os.path.join(cmake_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def source_hash():
    """Content hash of everything that decides the measured program."""
    h = hashlib.sha256()
    roots = [os.path.join(REPO, "src"), HERE]
    files = [os.path.join(REPO, "CMakeLists.txt")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(cmake_dir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = ""
    for i in range(8):
        try:
            with open(f"/sys/devices/system/cpu/cpu0/cache/index{i}/size") as f:
                llc = f.read().strip()
        except OSError:
            break
    cache = cmake_cache(cmake_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
                     if x)
    try:
        sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "none"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "llc": llc,
        "compiler": version,
        "flags": flags,
        "build_type": build_type,
        "git_sha": sha,
        "source_hash": source_hash(),
    }


def compare_counters(bdir, key, source, exact):
    """Checks exact counters against earlier runs of the same code and seed.

    Returns the list of counters that differ (empty when they all repeat or
    when this is the first run with this code and seed)."""
    path = os.path.join(bdir, "counters", key + ".json")
    record = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
        if record.get("source") != source:
            record = {}
    known = record.get("exact", {})
    differ = [f"{k}: {known[k]} then {v}" for k, v in sorted(exact.items())
              if k in known and known[k] != v]
    if not differ:
        known.update(exact)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"source": source, "exact": known,
                       "runs": record.get("runs", 0) + 1}, f, indent=1)
        os.replace(tmp, path)
    return differ


def stop_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, stop_on_signal)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        log(f"perfbench: no lsm sources next to {HERE}; nothing to build")
        return 2

    start = time.monotonic()
    bdir = build_root()
    try:
        cmake_dir = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    selftest = subprocess.run([os.path.join(cmake_dir, "lsmbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("perfbench: self-tests failed")
        return 1
    if args.selftest:
        return 0

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = os.path.relpath(os.path.join(bdir, "runs", tag), REPO)
    cmd = [os.path.join(cmake_dir, "lsmbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={workdir}"]
    timeout = max(60.0, DEADLINE_S - (time.monotonic() - start))
    proc = subprocess.Popen(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True,
                            preexec_fn=die_with_parent)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {timeout:.0f} s")
        return 1
    finally:
        # Also on a signal: lsmbench stops its daemon in its own SIGTERM
        # handler, and is waited for here.
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: no result from lsmbench (exit {proc.returncode})")
        return 1

    fp = fingerprint(cmake_dir)
    record = dict(result, fingerprint=fp, workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace)
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    with open(os.path.join(bdir, "results", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print("details: " + json.dumps(result["details"], sort_keys=True))
    print("exact: " + json.dumps(result["exact"], sort_keys=True))
    if proc.returncode != 0 or not result["correct"]:
        for e in result["errors"][:20]:
            log("perfbench: gate failed: " + e)
        log(f"perfbench: {len(result['errors'])} correctness gate failure(s)")
        return 1
    differ = compare_counters(bdir, f"{args.workload}-s{args.seed}",
                              fp["source_hash"], result["exact"])
    if differ:
        log("perfbench: exact counters differ from an earlier run of the same "
            "code and seed: " + "; ".join(differ))
        return 1
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
    wrong = [f"{n} [{m['unit']}]" for n, m in result["metrics"].items()
             if declared.get(n) != m["unit"]]
    missing = sorted(set(declared) - set(result["metrics"]))
    if wrong or missing:
        log("perfbench: metrics not declared in BENCHMARK.json: "
            + ", ".join(wrong) + "; declared but not measured: "
            + ", ".join(missing))
        return 1
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
