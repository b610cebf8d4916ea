// kvbench: the end-to-end driver. Calls the unchanged RunKvService
// (runtime/kv_service) on one workload, at least once and then over and
// over until --seconds have been measured, checks every call's verdicts
// and audits, and prints one JSON line with every call's values (run.py
// takes the medians):
//
//   kvbench --workload kv-hot --seed 1 --seconds 20 [--smoke]
//
// Everything is measured from outside the service:
//   - set-up ends at the first worker fork, seen by a pthread_atfork
//     parent handler; teardown is what follows the op phase;
//   - getrusage(RUSAGE_SELF / RUSAGE_CHILDREN) deltas around each call
//     give the OS layer (children include respawns);
//   - after the calls, the per-layer numbers that need no replay: the BA
//     lock's segment footprint and the segment constructor's time.
//
// Exit status: 0 when every call passed, 1 when any verdict failed, 2
// on a usage or build error (including a non-Release build).
#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "runtime/kv_service.hpp"
#include "shm/shm_segment.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef KVBENCH_LTO
#define KVBENCH_LTO 0
#endif

namespace kvbench {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The first fork while armed: RunKvService forks only its workers, so
// the first one ends set-up.
bool g_fork_armed = false;
double g_first_fork_at = 0.0;
void OnForkParent() {
  if (g_fork_armed) {
    g_first_fork_at = Now();
    g_fork_armed = false;
  }
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

struct Usage {
  double user_s = 0, sys_s = 0, minflt = 0;
};

Usage GetUsage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return {Seconds(ru.ru_utime), Seconds(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s, a.minflt - b.minflt};
}

/// One service call and what was measured around it.
struct Call {
  rme::KvServiceResult r;
  uint64_t requested = 0;
  double setup_s = 0, teardown_s = 0;
  Usage self, children;
  std::vector<std::string> failures;
};

uint64_t KillBudget(const Workload& w) {
  return w.independent_kills + w.batch_kill_events * kProcs;
}

/// The per-call correctness gate. Empty = the call passed.
std::vector<std::string> Verdicts(const Workload& w, const Call& c) {
  const rme::KvServiceResult& r = c.r;
  std::vector<std::string> f;
  auto check = [&f](bool ok, const char* what) {
    if (!ok) f.emplace_back(what);
  };
  check(r.conservation_delta == 0, "conservation audit");
  check(r.put_integrity_mismatches == 0, "put-integrity audit");
  check(r.audits_binding, "audits not binding");
  check(r.cs_overlap_events == 0, "live tripwire overlap");
  check(r.starved_pids == 0, "starved pid");
  check(r.hung_abandoned == 0, "abandoned pid");
  check(r.hangs == 0 && !r.watchdog_fired, "watchdog fired");
  check(r.child_errors == 0, "child error");
  check(r.ready_stripes == w.stripes, "stripe table incomplete");
  check(r.ops_done >= c.requested, "ops incomplete");
  check(TailSupported(r.latency_samples, 0.99),
        "too few latency samples for p99");
  if (w.log_events) {
    check(r.me_violations == 0, "ME violation");
    check(r.bcsr_violations == 0, "BCSR violation");
    check(r.phantom_crash_notes == 0, "phantom crash note");
    check(!r.log_overflow, "event log overflow");
    // A whole-batch kill reaches every live worker; one still dying from
    // the previous kill is not live, so each batch may come up one short.
    check(r.kills <= KillBudget(w) &&
              r.kills + w.batch_kill_events >= KillBudget(w),
          "budgeted kills not all delivered");
  } else {
    check(r.kills == 0, "unexpected kill");
  }
  return f;
}

Call RunOne(const Workload& w, const ZipfKeys& keys, uint64_t call_seed) {
  rme::KvServiceConfig cfg;
  cfg.lock_name = kLock;
  cfg.num_procs = kProcs;
  cfg.stripes = w.stripes;
  cfg.keys = kKeys;
  cfg.ops_per_proc = w.ops_per_proc;
  cfg.batch_ops = w.batch_ops;
  cfg.seed = call_seed;
  cfg.log_events = w.log_events;
  cfg.independent_kills = w.independent_kills;
  cfg.batch_kill_events = w.batch_kill_events;
  cfg.batch_size = 0;  // whole-batch: every live worker
  if (w.kill_interval_ms > 0) cfg.kill_interval_ms = w.kill_interval_ms;
  cfg.spin_budget_us = kSpinBudgetUs;
  cfg.reservoir_capacity = kReservoirCapacity;
  cfg.draw = [keys, w](int, rme::Prng& rng) { return DrawOp(rng, keys, w); };

  Call c;
  c.requested = static_cast<uint64_t>(kProcs) * w.ops_per_proc;
  const Usage self0 = GetUsage(RUSAGE_SELF);
  const Usage child0 = GetUsage(RUSAGE_CHILDREN);
  const double t0 = Now();
  g_first_fork_at = 0.0;
  g_fork_armed = true;
  c.r = rme::RunKvService(cfg);
  const double t1 = Now();
  g_fork_armed = false;
  c.self = GetUsage(RUSAGE_SELF) - self0;
  c.children = GetUsage(RUSAGE_CHILDREN) - child0;
  c.setup_s = g_first_fork_at > 0 ? g_first_fork_at - t0 : std::nan("");
  c.teardown_s = (t1 - t0) - c.setup_s - c.r.wall_seconds;
  c.failures = Verdicts(w, c);
  return c;
}

/// Five timings of the shm::Segment constructor at `bytes`.
std::vector<double> SegmentMapSeconds(size_t bytes) {
  std::vector<double> t;
  for (int i = 0; i < 5; ++i) {
    const double t0 = Now();
    rme::shm::Segment seg(bytes);
    t.push_back(Now() - t0);
  }
  return t;
}

int Main(int argc, char** argv) {
  const Args args{argc, argv};
  if (args.Has("--provenance")) {
    std::printf("{\"build_type\": \"%s\", \"lto\": %s, \"compiler\": \"%s %s\"}\n",
                KVBENCH_BUILD_TYPE, KVBENCH_LTO ? "true" : "false",
#if defined(__clang__)
                "clang",
#else
                "gcc",
#endif
                __VERSION__);
    return 0;
  }
  if (!RequireReleaseBuild()) return 2;
  const Workload w = WorkloadFromArgs(args);
  const uint64_t seed = args.GetU64("--seed", 1);
  const double seconds = args.GetDouble("--seconds", 10.0);
  pthread_atfork(nullptr, OnForkParent, nullptr);

  const ZipfKeys keys(kKeys, w.theta);
  std::vector<Call> calls;
  const double start = Now();
  while (calls.empty() || Now() - start < seconds) {
    calls.push_back(RunOne(w, keys, CallSeed(seed, calls.size())));
    const Call& c = calls.back();
    std::string verdict = c.failures.empty() ? "ok" : "FAILED:";
    for (const std::string& f : c.failures) verdict += " " + f + ";";
    std::fprintf(stderr,
                 "[%s] call %zu: %.0f ops/s  p50 %.2fus  p99 %.2fus  setup "
                 "%.3fs  op %.3fs  teardown %.3fs  kills %llu  %s\n",
                 w.name, calls.size(), c.r.ops_per_second, c.r.p50_us,
                 c.r.p99_us, c.setup_s, c.r.wall_seconds, c.teardown_s,
                 static_cast<unsigned long long>(c.r.kills), verdict.c_str());
  }

  uint64_t attempted = 0, completed = 0;
  std::vector<std::string> failures;
  // Every call's value of every metric, end-to-end and per-layer alike.
  std::map<std::string, std::vector<double>> values;
  for (const Call& c : calls) {
    const rme::KvServiceResult& r = c.r;
    attempted += c.requested;
    completed += std::min(r.ops_done, c.requested);
    for (const std::string& f : c.failures) failures.push_back(f);
    const double ops = static_cast<double>(std::max<uint64_t>(r.ops_done, 1));
    values["ops_per_s"].push_back(r.ops_per_second);
    values["p50_us"].push_back(r.p50_us);
    values["p99_us"].push_back(r.p99_us);
    values["setup_s"].push_back(c.setup_s);
    values["segment_mb"].push_back(static_cast<double>(r.segment_bytes_used) / 1e6);
    values["os.setup_minflt"].push_back(c.self.minflt);
    values["os.setup_sys_s"].push_back(c.self.sys_s);
    values["os.worker_minflt_per_kop"].push_back(c.children.minflt / (ops / 1000.0));
    const double cpu = c.children.user_s + c.children.sys_s;
    values["os.worker_sys_share"].push_back(cpu > 0 ? c.children.sys_s / cpu : 0.0);
    values["os.worker_cpu_us_per_op"].push_back(cpu * 1e6 / ops);
    values["locks.batched_share"].push_back(
        r.passages > 0 ? static_cast<double>(r.batched_passages) /
                             static_cast<double>(r.passages)
                       : 0.0);
    values["kv.passages_per_op"].push_back(static_cast<double>(r.passages) / ops);
    values["kv.log_events_per_op"].push_back(static_cast<double>(r.log_events) / ops);
    values["kv.teardown_s"].push_back(c.teardown_s);
    values["kv.p999_us"].push_back(r.p999_us);
    values["kv.latency_samples"].push_back(static_cast<double>(r.latency_samples));
    values["crash.kills"].push_back(static_cast<double>(r.kills));
    values["crash.crash_notes"].push_back(static_cast<double>(r.crash_notes));
    values["crash.max_attempts_per_passage"].push_back(
        static_cast<double>(r.max_attempts_per_passage));
    values["crash.max_incarnations"].push_back(
        static_cast<double>(r.max_incarnations));
  }
  values["shm.lock_kb"].push_back(static_cast<double>(LockBytes()) / 1024.0);
  values["shm.segment_map_s"] = SegmentMapSeconds(calls.front().r.segment_bytes_used);
  const uint64_t failed = FailedOps(attempted, completed, failures.empty());

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"calls\": %zu, "
              "\"attempted\": %llu, \"failed\": %llu, "
              "\"correct\": %s, \"failures\": [",
              w.name, static_cast<unsigned long long>(seed), calls.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              failures.empty() ? "true" : "false");
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintJsonString(failures[i]);
  }
  std::printf("], \"values\": {");
  bool first = true;
  for (const auto& [name, v] : values) {
    std::printf("%s\"%s\": [", first ? "" : ", ", name.c_str());
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) std::printf(", ");
      PrintJsonNumber(v[i]);
    }
    std::printf("]");
    first = false;
  }
  std::printf("}}\n");
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) { return kvbench::Main(argc, argv); }
