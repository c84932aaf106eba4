#!/usr/bin/env python3
"""End-to-end benchmark of `ucc run` on three seeded paper workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout.  The first call builds `ucc`, the
helper `ucbench` and the reference kernel `ucref` from source into
.bench_build/ (Release, via this directory's CMakeLists.txt); later calls
only check the build is current.

--trace 0 generates the workload's .uc program from the seed, times
`ucc run` processes one at a time (first against empty native-kernel caches,
then against one warm cache) and prints the end-to-end metrics.  Each
`ucc run` is timed right after one run of the fixed reference kernel
`ucref`, and its time is reported as a multiple of that, scaled so that a
`ucref` run counts as REF_MS: this takes out the speed of a shared host,
which drifts by tens of percent from one minute to the next.  --trace 1
makes the traced run through the uc:: API in-process (ucbench trace) and
prints the per-layer metrics, the per-layer self-time table, and writes the
spans as Chrome trace JSON under .bench_build/out/.  Every result is checked
against a sequential oracle.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--all runs both modes on every workload and rewrites BENCHMARK.json from
the tables below.  NOTES.md explains the metrics.
"""

import argparse
import fcntl
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
UCC = CMAKE_DIR / "uc" / "tools" / "ucc"
UCBENCH = CMAKE_DIR / "ucbench"
UCREF = CMAKE_DIR / "ucref"
OUT = BUILD / "out"

RUN_SECONDS = 25
DEFAULT_SEED = 1
SETUP_SAMPLES = 7     # cold-cache `ucc run`s per run; setup_s is their median
OVERHEAD_SAMPLES = 5  # warm `ucc run`s in a traced run, for process overhead
PROCESS_TIMEOUT_S = 60
MAX_CONSECUTIVE_FAILURES = 3  # then the tree is broken: stop and report it
EXIT_SKIPPED = 77     # a native workload that ran nothing natively
REF_MS = 100.0        # what one `ucref` run counts as in the reported times

WORKLOADS = [
    ("grid_solve",
     "Fig 8 grid *solve, 128x128, 64K lanes, native, 2 threads: lane "
     "execution, router gathers, commit and pool fork-join dominate"),
    ("apsp_ckpt",
     "Fig 6 all-pairs shortest path, N=192, native, 1 thread, checkpoint "
     "every 8 stmts, seeded router faults: plan replay, snapshot capture, "
     "retries"),
    ("jacobi_news",
     "Section 5 Jacobi float stencil, 128x128, 100 sweeps, default engine, "
     "no flags: fusion, plan replay and NEWS access; native and ckpt idle"),
]

# name, unit, better, regression bound (share of the parent's median)
END_TO_END = [
    ("run_ms.p50", "ms", "lower", 0.25),
    ("run_ms.p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("sim_cycles", "cycles", "lower", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

# name, unit, better
PER_LAYER = [
    ("uclang.compile_ms", "ms", "lower"),
    ("uc.compile_ms", "ms", "lower"),
    ("native.build_s", "s", "lower"),
    ("native.kernels_compiled", "count", "lower"),
    ("native.cache_hits", "count", "higher"),
    ("native.dispatches", "count", "higher"),
    ("native.fallbacks", "count", "lower"),
    ("native.dispatch_ratio", "ratio", "higher"),
    ("ucvm.run_ms", "ms", "lower"),
    ("ucvm.stmts", "count", "lower"),
    ("ucvm.hot_site_ms", "ms", "lower"),
    ("ucvm.hot_site_share", "ratio", "lower"),
    ("kernel.bytecode_stmts", "count", "higher"),
    ("kernel.fused_stmts", "count", "higher"),
    ("kernel.walk_stmts", "count", "lower"),
    ("kernel.fused_ratio", "ratio", "higher"),
    ("ckpt.captures", "count", "lower"),
    ("ckpt.durable_writes", "count", "lower"),
    ("ckpt.rollbacks", "count", "lower"),
    ("ckpt.snapshot_bytes", "bytes", "lower"),
    ("ckpt.capture_ms", "ms", "lower"),
    ("ckpt.durable_ms", "ms", "lower"),
    ("cm.vector_ops", "count", "lower"),
    ("cm.news_ops", "count", "lower"),
    ("cm.router_ops", "count", "lower"),
    ("cm.router_messages", "count", "lower"),
    ("cm.reductions", "count", "lower"),
    ("cm.global_ors", "count", "lower"),
    ("cm.faults", "count", "lower"),
    ("cm.retries", "count", "lower"),
    ("cm.plan_hits", "count", "higher"),
    ("cm.plan_hit_ratio", "ratio", "higher"),
    ("pool.regions", "count", "lower"),
    ("pool.chunks", "count", "lower"),
    ("pool.forkjoin_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("process.overhead_ms", "ms", "lower"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


class Skipped(Exception):
    """A native workload that dispatched nothing natively."""


# ---------------------------------------------------------------- build

def child_env():
    """The environment for every child: no user overrides of the native
    tier, and temporary files (the toolchain's too) inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("UC_NATIVE_CACHE_DIR", "UC_NATIVE_CC")}
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no UC sources under {ROOT}; run from a checkout")
    BUILD.mkdir(exist_ok=True)
    env = child_env()
    with open(BUILD / "build.log", "w") as out:
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                          "-DCMAKE_BUILD_TYPE=Release", *gen])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(CMAKE_DIR), "-j", jobs,
                      "--target", "ucc", "ucbench", "ucref"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                raise BenchError(f"build failed; see {BUILD / 'build.log'}")


def first_line(cmd):
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             env=child_env())
        return (res.stdout or res.stderr).splitlines()[0].strip()
    except (OSError, IndexError):
        return "unavailable"


def host_fingerprint(threads):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in open(CMAKE_DIR / "CMakeCache.txt"):
        m = re.match(r"(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)", line)
        if m:
            cache[m.group(1)] = m.group(2)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                "--version"]),
        "native_cc": first_line(["c++", "--version"]),
        "threads": threads,
    }


# ---------------------------------------------------------------- processes

class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _read_all(fd):
    chunks = []
    while chunk := os.read(fd, 65536):
        chunks.append(chunk)
    os.close(fd)
    return b"".join(chunks).decode(errors="replace")


def spawn(argv, env):
    """Runs argv to completion.  Returns (exit status or None on timeout,
    wall ms, max RSS in MiB, stdout, stderr).

    Output goes through pipes, not files: on ext4, a process that writes to
    a file truncated at open flushes it to disk on close, which adds tens
    of milliseconds of disk latency to the measured wall time.  The pipes
    are sized to hold all of ucc's output, so the child never blocks on
    them before it exits."""
    pipes = [os.pipe(), os.pipe()]
    for r, _ in pipes:
        fcntl.fcntl(r, fcntl.F_SETPIPE_SZ, 1 << 20)
    actions = [(os.POSIX_SPAWN_DUP2, w, fd)
               for fd, (_, w) in zip((1, 2), pipes)]
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROCESS_TIMEOUT_S)
    t0 = time.perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        for _, w in pipes:
            os.close(w)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.perf_counter_ns()
        code = os.waitstatus_to_exitcode(status)
    except _Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.perf_counter_ns()
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    out, err = (_read_all(r) for r, _ in pipes)
    return code, (t1 - t0) / 1e6, usage.ru_maxrss / 1024.0, out, err


def run_tool(argv, env):
    res = subprocess.run([str(a) for a in argv], capture_output=True,
                         text=True, env=env, timeout=900)
    if res.returncode != 0:
        raise BenchError(f"{Path(argv[0]).name} {argv[1]} failed "
                         f"({res.returncode}): {res.stderr.strip()}")
    return res.stdout


class Runner:
    """One workload and seed: the generated program, and `ucc run`
    invocations checked against the oracle checksum and the first run's
    simulated cycles."""

    def __init__(self, workload, seed, work):
        self.work = work
        self.env = child_env()
        self.program = work / f"{workload}.uc"
        self.spec = json.loads(run_tool(
            [UCBENCH, "gen", workload, seed, self.program], self.env))
        self.cycles = None
        self.ref_output = {}  # threads -> the first `ucref` output
        self.attempted = 0
        self.failed = 0
        self.consecutive_failures = 0

    @property
    def broken(self):
        return self.consecutive_failures >= MAX_CONSECUTIVE_FAILURES

    def ucc(self, cache_dir):
        """One `ucc run`; returns (ok, wall ms, max RSS MiB)."""
        argv = [str(UCC), "run", str(self.program), *self.spec["flags"],
                "--stats"]
        if self.spec["native"]:
            argv.append(f"--native-cache-dir={cache_dir}")
        code, ms, rss, out, err = spawn(argv, self.env)
        self.attempted += 1
        ok = code == 0 and self._check(out, err)
        self.consecutive_failures = 0 if ok else self.consecutive_failures + 1
        if not ok:
            self.failed += 1
            log(f"run.py: FAILED `ucc run` (exit {code}): {err[-400:]}")
        return ok, ms, rss

    def ref(self, threads):
        """One `ucref` run on `threads` threads; returns its wall ms."""
        code, ms, _, out, err = spawn([str(UCREF), str(threads)], self.env)
        self.ref_output.setdefault(threads, out)
        if code != 0 or out != self.ref_output[threads]:
            raise BenchError(f"ucref failed (exit {code}): {err.strip()}")
        return ms

    def _check(self, stdout, stderr):
        sums = re.findall(r"^checksum (-?\d+)$", stdout, re.M)
        cycles = re.findall(r"^cycles=(\d+) ", stderr, re.M)
        if len(sums) != 1 or int(sums[0]) != self.spec["checksum"]:
            log(f"run.py: checksum {sums} != oracle {self.spec['checksum']}")
            return False
        if len(cycles) != 1:
            return False
        if self.cycles is None:
            self.cycles = int(cycles[0])
        return int(cycles[0]) == self.cycles

    def fresh_cache(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def check_native(self, cache_dir):
        """A native workload must dispatch natively, or it is skipped."""
        if not self.spec["native"]:
            return
        probe = json.loads(run_tool(
            [UCBENCH, "probe", self.spec["workload"], self.spec["seed"],
             cache_dir], self.env))
        if probe["dispatches"] == 0:
            raise Skipped(
                f"NOTICE: SKIPPED {self.spec['workload']}: no statement "
                "dispatched natively (no working C++ toolchain, or every "
                "kernel declined); bytecode time is not reported under a "
                "native workload's name")


# ---------------------------------------------------------------- metrics

def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it (p90 from
    100 samples on): returns (value, percentile)."""
    s = sorted(samples)
    n = len(s)
    if n >= 100:
        idx = -(-9 * n // 10) - 1  # nearest-rank p90
    elif n > 10:
        idx = n - 11
    else:
        idx = n - 1  # too few samples for any tail: report the maximum
    return s[idx], 100.0 * (idx + 1) / n


def paired_ucc(runner, cache, ref_threads):
    """One `ucref` run, then one `ucc run`: returns (ok, ucc wall ms in
    units where that `ucref` run took REF_MS, raw wall ms, max RSS MiB)."""
    ref_ms = runner.ref(ref_threads)
    ok, ms, mib = runner.ucc(cache)
    return ok, ms * REF_MS / ref_ms, ms, mib


def measure_e2e(runner, seconds):
    setup, setup_raw = [], []
    warm = None
    for k in range(SETUP_SAMPLES):
        if runner.broken:
            break
        cache = runner.fresh_cache(f"cache-setup{k}")
        # Set-up is mostly the single-threaded front end and toolchain.
        ok, ms, raw, _ = paired_ucc(runner, cache, 1)
        if ok:
            setup.append(ms / 1e3)
            setup_raw.append(raw / 1e3)
        warm = warm or cache
    runner.check_native(warm)

    times, raw_times, rss = [], [], []
    deadline = time.perf_counter() + seconds
    while not runner.broken and time.perf_counter() < deadline:
        ok, ms, raw, mib = paired_ucc(runner, warm, runner.spec["threads"])
        if ok:
            times.append(ms)
            raw_times.append(raw)
            rss.append(mib)
    if not times or not setup:
        log("run.py: no successful `ucc run`; no metrics")
        return {}, {}
    p90, pct = tail_percentile(times)
    raw_p90, _ = tail_percentile(raw_times)
    metrics = {
        "run_ms.p50": statistics.median(times),
        "run_ms.p90": p90,
        "setup_s": statistics.median(setup),
        "sim_cycles": runner.cycles,
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "run_ms.p50": f"median of {len(times)} warm-cache runs "
                      f"(wall {statistics.median(raw_times):.1f} ms)",
        "run_ms.p90": f"p{pct:.1f} of {len(times)} samples "
                      f"(wall {raw_p90:.1f} ms)",
        "setup_s": f"median of {len(setup)} empty-cache runs "
                   f"(wall {statistics.median(setup_raw):.3f} s)",
        "sim_cycles": "identical on every run",
        "peak_rss_mb": "median max RSS of the ucc process",
    }
    return metrics, notes


def measure_layers(runner, seconds):
    workload, seed = runner.spec["workload"], runner.spec["seed"]
    warm = runner.fresh_cache("cache-warm")
    runner.ucc(warm)  # fills the cache for the process-overhead runs
    runner.check_native(warm)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    text = run_tool([UCBENCH, "trace", workload, seed,
                     f"{max(1.0, 0.85 * seconds):.3f}", runner.work / "trace",
                     trace_path], runner.env)
    lines = text.strip().splitlines()
    traced = json.loads(lines[-1])
    table = "\n".join(lines[:-1])
    (OUT / f"selftime-{workload}-seed{seed}.txt").write_text(table + "\n")
    runner.attempted += traced["iterations"]
    runner.failed += traced["failed"]
    if runner.cycles is not None and traced["cycles"] != runner.cycles:
        runner.failed += 1
        log("run.py: in-process cycles differ from `ucc run`")

    procs = [ms for ok, ms, _ in
             (runner.ucc(warm) for _ in range(OVERHEAD_SAMPLES)) if ok]
    metrics = traced["metrics"]
    metrics["process.overhead_ms"] = (
        statistics.median(procs) - metrics["ucvm.run_ms"]
        - metrics["uc.compile_ms"]) if procs else 0.0
    missing = [n for n, _, _ in PER_LAYER if n not in metrics]
    if missing:
        raise BenchError(f"traced run lacks metrics {missing}")
    print(table)
    print(f"spans: {trace_path}")
    return metrics, {}


# ---------------------------------------------------------------- main

def run_one(workload, seed, seconds, trace):
    """Measures one workload; prints the report and returns the result."""
    if workload not in [w for w, _ in WORKLOADS]:
        raise BenchError(f"unknown workload '{workload}'")
    build()
    work = BUILD / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, work)
        measure = measure_layers if trace else measure_e2e
        metrics, notes = measure(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table = PER_LAYER if trace else END_TO_END
    fingerprint = host_fingerprint(runner.spec["threads"])
    print(f"host: {json.dumps(fingerprint)}")
    print(f"{workload} seed {seed} ({'traced' if trace else 'end to end'}): "
          f"ucc run {' '.join(runner.spec['flags']) or '(no flags)'}")
    for name, unit, *_ in table:
        value = f"{metrics[name]:>16.6g}" if name in metrics else f"{'-':>16}"
        print(f"  {name:24s} {value} {unit:7s} {notes.get(name, '')}")
    fail_rate = runner.failed / max(1, runner.attempted)
    print(f"  {'fail_rate':24s} {fail_rate:>16.6g} {'ratio':7s} "
          f"{runner.failed} of {runner.attempted} runs")
    result = {
        "correct": runner.failed == 0 and all(n in metrics
                                              for n, *_ in table),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in table if name in metrics},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, trace=trace,
                  host=fingerprint)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def write_spec():
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="both modes on every workload, then rewrite "
                         "BENCHMARK.json")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("--workload is required")
    try:
        if args.all:
            ok = True
            for workload, _ in WORKLOADS:
                for trace in (0, 1):
                    try:
                        ok = run_one(workload, args.seed, args.seconds,
                                     trace)["correct"] and ok
                    except Skipped as e:
                        log(f"run.py: {e}")
            write_spec()
            return 0 if ok else 1
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except Skipped as e:
        log(f"run.py: {e}")
        return EXIT_SKIPPED
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
