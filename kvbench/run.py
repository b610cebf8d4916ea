#!/usr/bin/env python3
"""The KV benchmark: one entry point for every way of running it.

Run from the root of a checkout. The first call builds the repository's
libraries and the benchmark's binaries (Release, with the repository's
LTO setting) into .bench_build/, or into $CARGO_TARGET_DIR when that is
set; later calls only rebuild what changed.

  python3 kvbench/run.py --workload kv-hot --seed 1 --seconds 20 --trace 0
      End-to-end metrics (tracing off) as the last stdout line, in the
      form {"correct", "attempted", "failed", "metrics"}.
  python3 kvbench/run.py --workload kv-hot --seed 1 --seconds 20 --trace 1
      Per-layer metrics: service calls with rusage, plus the traced
      replay against rme and rme_native, with spans on and off.
      --spans-out FILE also writes every span of one replay as TSV.
  python3 kvbench/run.py --all [--seed N] [--seconds S]
      All three workloads, one table of the end-to-end metrics with units.
  python3 kvbench/run.py --smoke
      The arithmetic self-test, then a seconds-long scaled-down
      configuration of all three workloads, traced and untraced.
  python3 kvbench/run.py --selftest
      The arithmetic self-test alone.

Every mode exits 1 when any verdict, audit or check failed, and 2 when the
benchmark cannot run (no sources, build failure, non-Release build).
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kv-hot", "kv-wide", "kv-crash"]
TARGETS = ["kvbench", "kvtrace", "kvtrace_native", "kvbench_selftest"]
RUN_TIMEOUT_S = 170

# (name, unit) of every end-to-end metric; failed_op_share is printed by
# --all but is not a benchmark metric (it is 0 on every passing run).
END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
    ("segment_mb", "MB"),
]
PER_LAYER = [
    ("shm.lock_kb", "KiB"),
    ("shm.segment_map_s", "s"),
    ("striped_table.create_s", "s"),
    ("os.setup_minflt", "count"),
    ("os.setup_sys_s", "s"),
    ("os.worker_minflt_per_kop", "count/kop"),
    ("os.worker_sys_share", "ratio"),
    ("os.worker_cpu_us_per_op", "us"),
    ("locks.recover_ns.p50", "ns"),
    ("locks.enter_ns.p50", "ns"),
    ("locks.enter_ns.p99", "ns"),
    ("locks.exit_ns.p50", "ns"),
    ("locks.batched_share", "ratio"),
    ("rmr.ops_per_passage", "count"),
    ("rmr.cc_per_passage", "count"),
    ("rmr.dsm_per_passage", "count"),
    ("rmr.probe_tax", "ratio"),
    ("kv.passages_per_op", "ratio"),
    ("kv.log_events_per_op", "ratio"),
    ("kv.teardown_s", "s"),
    ("kv.p999_us", "us"),
    ("kv.latency_samples", "count"),
    ("kv.self_ns_per_passage", "ns"),
    ("crash.kills", "count"),
    ("crash.crash_notes", "count"),
    ("crash.max_attempts_per_passage", "count"),
    ("crash.max_incarnations", "count"),
    ("trace.overhead", "ratio"),
]
# Each traced variant is replayed this many times; per-layer numbers are
# medians over the repeats.
TRACE_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here (exit 2)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no repository sources beside kvbench/; run from "
                         "the root of a full checkout")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target"] + TARGETS)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return bdir


def run_binary(bdir, name, args, deadline=None):
    """Runs one benchmark binary in its own process group and returns its
    parsed last stdout line. The group is killed afterwards, so no worker
    outlives the call, even after a crash or a timeout (RUN_TIMEOUT_S, or
    whatever is left until the monotonic `deadline`)."""
    timeout = RUN_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen([os.path.join(bdir, name)] + args,
                            stdout=subprocess.PIPE, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if out is None:
        proc.communicate()
        return {"correct": False, "failures": [name + " timed out"]}
    if proc.returncode == 2:
        raise BenchError(name + " refused to run")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False,
                "failures": [name + " exited %d without a result"
                             % proc.returncode]}


def read_cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """SHA-256 over src/: identifies the code measured even where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; src_sha256 still applies
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(bdir, seed):
    built = run_binary(bdir, "kvbench", ["--provenance"])
    if built.get("build_type") != "Release":
        raise BenchError("refusing to report from a %s build"
                         % built.get("build_type"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read_cpu_model(),
        "build_type": built["build_type"],
        "lto": built["lto"],
        "compiler": built["compiler"],
        "kernel": platform.release(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def common_args(workload, seed, smoke):
    args = ["--workload", workload, "--seed", str(seed)]
    return args + (["--smoke"] if smoke else [])


def median(values):
    """Median of the values that are not None; None if there are none."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def spread(values):
    """Interquartile range over the median, with the quartiles of
    statistics.quantiles(values, n=4); None below two values."""
    values = [v for v in values if v is not None]
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def check_arithmetic():
    """The Python half of the self-test: medians and spreads."""
    ok = (median([4, 1, None, 3, 2]) == 2.5 and median([None]) is None and
          spread(list(range(10, 0, -1))) == (8.25 - 2.75) / 5.5 and
          spread([7, 7, 7, 7]) == 0 and spread([5]) is None)
    print("run.py arithmetic: %s" % ("ok" if ok else "FAILED"))
    return ok


def run_e2e(bdir, workload, seed, seconds, smoke, deadline=None):
    """Tracing off: one workload's service calls, with each metric's
    median over the calls in "metrics"."""
    args = common_args(workload, seed, smoke) + ["--seconds", str(seconds)]
    r = run_binary(bdir, "kvbench", args, deadline)
    r["metrics"] = {name: median(v) for name, v in r.get("values", {}).items()}
    return r


def median_of(results, *path):
    """Median of the value at `path` in each result; None if none has it."""
    values = []
    for r in results:
        for key in path:
            r = r.get(key) if isinstance(r, dict) else None
        values.append(r)
    return median(values)


def run_layers(bdir, workload, seed, seconds, smoke, spans_out,
               deadline=None):
    """Tracing on: service calls for the OS/kv/crash layers, then the
    replay for the lock/rmr layers, the probe tax and the trace cost."""
    base = common_args(workload, seed, smoke)
    svc = run_e2e(bdir, workload, seed, seconds / 2, smoke, deadline)
    results = {"on": [], "off": [], "native": []}
    failures = list(svc.get("failures", []))
    ops = 0
    for i in range(1 if smoke else TRACE_REPEATS):
        for key, name, spans in (("on", "kvtrace", "1"),
                                 ("off", "kvtrace", "0"),
                                 ("native", "kvtrace_native", "1")):
            extra = []
            if spans_out and key == "on" and i == 0:
                extra = ["--spans-out", os.path.abspath(spans_out)]
            r = run_binary(bdir, name, base + ["--spans", spans] + extra,
                           deadline)
            results[key].append(r)
            failures += r.get("failures", [])
            ops += r.get("ops", 0)

    on = results["on"]
    layers = dict(svc["metrics"])
    for name in on[0].get("layers", {}):
        layers[name] = median_of(on, "layers", name)
    instr_ns = median_of(on, "passage_ns_mean")
    native_ns = median_of(results["native"], "passage_ns_mean")
    rate_off = median_of(results["off"], "passage_rate")
    rate_on = median_of(on, "passage_rate")
    layers["rmr.probe_tax"] = (instr_ns / native_ns
                               if instr_ns and native_ns else None)
    layers["trace.overhead"] = (rate_off / rate_on
                                if rate_off and rate_on else None)
    log("[%s] self time share of a passage: %s" % (workload, ", ".join(
        "%s %.1f%%" % (name, 100 * median_of(on, "self_share", name))
        for name in on[0].get("self_share", {}))))
    correct = (svc.get("correct", False) and not failures and
               all(r.get("correct") for k in results for r in results[k]))
    attempted = svc.get("attempted", 0) + ops
    # As in kvbench: a run that fails anything fails all of its ops.
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "failures": failures,
        "metrics": layers,
    }


def result_line(r, table):
    metrics = {}
    correct = bool(r.get("correct"))
    for name, unit in table:
        value = r.get("metrics", {}).get(name)
        if value is None:
            r.setdefault("failures", []).append("metric %s missing" % name)
            correct = False
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": correct and not r.get("failures"),
            "attempted": int(r.get("attempted", 0)) or 1,
            "failed": int(r.get("failed", 0)),
            "metrics": metrics}


def print_table(rows):
    cols = [name for name, _ in END_TO_END] + ["failed_op_share"]
    units = [unit for _, unit in END_TO_END] + ["ratio"]
    print("%-9s" % "workload" + "".join(
        "%25s" % ("%s (%s)" % (c, u)) for c, u in zip(cols, units)))
    for workload, r in rows:
        m = dict(r.get("metrics", {}))
        if r.get("attempted"):
            m["failed_op_share"] = r.get("failed", 0) / r["attempted"]
        print("%-9s" % workload + "".join(
            "%25s" % ("-" if m.get(c) is None else "%.6g" % m[c])
            for c in cols))
    for workload, r in rows:
        values = r.get("values", {})
        spreads = [(c, spread(values[c])) for c, _ in END_TO_END
                   if c in values]
        log("[%s] %d calls, within-run IQR/median: %s%s" % (
            workload, r.get("calls", 0), ", ".join(
                "%s %.1f%%" % (c, 100 * v) for c, v in spreads
                if v is not None),
            "" if r.get("correct") else "  FAILED: " + "; ".join(
                r.get("failures", ["no result"]))))


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans-out", help="with --trace 1: write one replay's "
                   "spans as TSV")
    p.add_argument("--all", action="store_true",
                   help="run all three workloads end to end")
    p.add_argument("--smoke", action="store_true",
                   help="seconds-long configuration of all three workloads")
    p.add_argument("--selftest", action="store_true",
                   help="check the benchmark's own arithmetic")
    a = p.parse_args()
    if not (a.workload or a.all or a.smoke or a.selftest):
        p.error("give --workload, --all, --smoke or --selftest")

    try:
        bdir = build()
        if a.selftest or a.smoke:
            selftest = [os.path.join(bdir, "kvbench_selftest")]
            if (subprocess.run(selftest).returncode != 0 or
                    not check_arithmetic()):
                return 1
            if a.selftest:
                return 0
        prov = provenance(bdir, a.seed)
        print(json.dumps({"provenance": prov}))
        if a.all or a.smoke:
            seconds = 1 if a.smoke else a.seconds
            rows = [(w, run_e2e(bdir, w, a.seed, seconds, a.smoke))
                    for w in WORKLOADS]
            print_table(rows)
            ok = all(r.get("correct") for _, r in rows)
            if a.smoke:
                for w in WORKLOADS:
                    spans = os.path.join(bdir, "smoke-spans-%s.tsv" % w)
                    r = run_layers(bdir, w, a.seed, seconds, True, spans)
                    ok = ok and r["correct"]
                    log("[%s] traced: %s" % (w, json.dumps(r["metrics"],
                                                           sort_keys=True)))
            return 0 if ok else 1
        # One run, build aside, must end within RUN_TIMEOUT_S.
        deadline = time.monotonic() + RUN_TIMEOUT_S
        if a.trace == 0:
            r = run_e2e(bdir, a.workload, a.seed, a.seconds, False, deadline)
            line = result_line(r, END_TO_END)
        else:
            r = run_layers(bdir, a.workload, a.seed, a.seconds, False,
                           a.spans_out, deadline)
            line = result_line(r, PER_LAYER)
        for f in r.get("failures", []):
            log("[%s] FAILED: %s" % (a.workload, f))
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    except BenchError as e:
        log("kvbench: " + str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
