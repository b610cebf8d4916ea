// What the end-to-end driver (kvbench.cpp) and the traced replay
// (kvtrace.cpp) share: the three workloads and their input generator (so
// both see the same op stream for the same seed), the lock-footprint
// probe, flag parsing and JSON output.
//
// The generator lives here rather than in the repository's bench
// helpers on purpose: the benchmark fixes its own inputs, so a change to
// the program under test cannot change what is measured.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/lock_registry.hpp"
#include "runtime/kv_service.hpp"
#include "shm/shm_segment.hpp"
#include "util/prng.hpp"

namespace kvbench {

/// Zipf(theta) over [0, n) by the YCSB closed-form inversion (Gray et
/// al., "Quickly generating billion-record synthetic databases"); rank 0
/// is the hottest key. theta = 0 is uniform. Immutable after
/// construction, so a copy is safe to use in forked children.
class ZipfKeys {
 public:
  ZipfKeys(uint64_t n, double theta) : n_(n), theta_(theta) {
    if (theta_ == 0.0) return;
    double zetan = 0.0;
    for (uint64_t i = 1; i <= n_; ++i) {
      zetan += std::pow(static_cast<double>(i), -theta_);
    }
    zetan_ = zetan;
    half_pow_theta_ = std::pow(0.5, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    const double zeta2 = 1.0 + half_pow_theta_;
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(rme::Prng& rng) const {
    if (theta_ == 0.0) return rng.NextBounded(n_);
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + half_pow_theta_) return 1;
    const auto r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double half_pow_theta_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

/// One workload: the service configuration it drives plus the op mix.
/// Every workload runs the paper's BA lock with 4 worker processes over
/// 1M keys, closed loop (each worker draws its next batch only after the
/// previous one completed).
struct Workload {
  const char* name;
  uint32_t stripes;
  double theta;          ///< 0 = uniform keys
  double read_frac;      ///< rest of (1 - read - put) is 3-key txns
  double put_frac;
  int batch_ops;         ///< ops drawn per NCS visit (EnterMany source)
  uint64_t ops_per_proc; ///< per service call
  bool log_events;
  uint64_t independent_kills;
  uint64_t batch_kill_events;  ///< whole-batch kills (all 4 workers)
  double kill_interval_ms;
  /// Ops per worker in one traced replay (a prefix of the same stream).
  uint64_t trace_ops_per_proc;
};

inline constexpr int kProcs = 4;
inline constexpr uint64_t kKeys = 1u << 20;
inline constexpr int kTxnKeys = 3;
inline constexpr const char* kLock = "ba";
/// Latency samples each worker keeps (KvServiceConfig::reservoir_capacity).
/// Once a worker has passed this many passages, the service's reservoir
/// draws from the op stream's generator, so the replay draws alike.
inline constexpr uint64_t kReservoirCapacity = 8192;
/// How long a waiter spins before it parks (KvServiceConfig::spin_budget_us).
/// A dead holder's respawn takes milliseconds; with the service's 100 us
/// default every kill parks the other workers on futex timeouts whose
/// erratic wakeups spread kv-crash's throughput by 20-35% from call to
/// call (7% at 5 ms). Every workload uses it, so kv-hot stays kv-crash's
/// no-crash twin; kv-hot and kv-wide run alike at 5 ms and at 100 us.
inline constexpr int32_t kSpinBudgetUs = 5000;

// Sizes: each call takes one to two seconds on a 4-vCPU Xeon VM (kv-hot's
// op phase: 2M ops at ~2M ops/s), so a run's median is over 15-45 calls.
// kv-wide uses 1024 stripes (a 0.78 GB segment of cold BA locks) rather
// than 4096 (3 GB), so that repeated calls stay light on a shared host.
// kv-crash's 120 kills take ~0.4 s against a ~1 s op phase: the schedule
// must end while every worker is still running, or kills go undelivered
// (seen in ~1% of calls with a 0.65 s op phase on a busy host).
inline constexpr Workload kWorkloads[] = {
    {"kv-hot", 64, 0.99, 0.70, 0.20, 16, 500000, false, 0, 0, 0.0, 150000},
    {"kv-wide", 1024, 0.0, 0.10, 0.60, 1, 250000, false, 0, 0, 0.0, 60000},
    {"kv-crash", 64, 0.99, 0.70, 0.20, 16, 200000, true, 80, 10, 4.0, 150000},
};

/// Scales a workload down to a seconds-long smoke configuration: same
/// shapes, a tenth of the ops and kills (so the kill schedule still ends
/// before the op phase does).
inline Workload Smoke(Workload w) {
  w.ops_per_proc /= 10;
  w.independent_kills /= 10;
  w.batch_kill_events /= 10;
  w.trace_ops_per_proc /= 10;
  return w;
}

inline const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// One op of the mix: kind by the read/put fractions, keys by the
/// popularity law (transactions redraw until their keys are distinct).
inline rme::KvOp DrawOp(rme::Prng& rng, const ZipfKeys& keys,
                        const Workload& w) {
  rme::KvOp op;
  const double u = rng.NextDouble();
  if (u < w.read_frac + w.put_frac) {
    op.kind = u < w.read_frac ? rme::KvOp::kRead : rme::KvOp::kPut;
    op.keys[0] = keys.Next(rng);
    return op;
  }
  op.kind = rme::KvOp::kTxn;
  op.nkeys = 0;
  while (op.nkeys < kTxnKeys) {
    const uint64_t k = keys.Next(rng);
    bool dup = false;
    for (int i = 0; i < op.nkeys; ++i) dup = dup || op.keys[i] == k;
    if (!dup) op.keys[op.nkeys++] = k;
  }
  return op;
}

/// The per-call seed: call i of a run with seed s. Calls differ, runs
/// with the same seed repeat.
inline uint64_t CallSeed(uint64_t seed, uint64_t call) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + call + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The service seeds each worker's stream with (seed, incarnation << 16
/// | pid); a worker's first incarnation is 1. The replay uses the same
/// stream so it draws the same ops.
inline rme::Prng WorkerStream(uint64_t call_seed, int pid) {
  return rme::Prng(call_seed, (uint64_t{1} << 16) + static_cast<uint64_t>(pid));
}

/// One BA lock's segment footprint at n = kProcs, in bytes: bump-arena
/// growth across MakeLock in a PlacementScope of a scratch segment.
inline size_t LockBytes() {
  rme::shm::Segment probe(64u << 20);
  const size_t before = probe.bytes_used();
  {
    rme::shm::PlacementScope scope(&probe);
    rme::MakeLock(kLock, kProcs).release();  // reclaimed with the segment
  }
  return probe.bytes_used() - before;
}

/// Minimal flag parsing: --name value pairs.
struct Args {
  int argc;
  char** argv;
  const char* Get(const char* name, const char* def) const {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    }
    return def;
  }
  bool Has(const char* name) const {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], name) == 0) return true;
    }
    return false;
  }
  uint64_t GetU64(const char* name, uint64_t def) const {
    const char* v = Get(name, nullptr);
    return v == nullptr ? def : std::strtoull(v, nullptr, 10);
  }
  double GetDouble(const char* name, double def) const {
    const char* v = Get(name, nullptr);
    return v == nullptr ? def : std::strtod(v, nullptr);
  }
};

#ifndef KVBENCH_BUILD_TYPE
#define KVBENCH_BUILD_TYPE "unknown"
#endif

/// The drivers refuse to report from anything but a Release build.
inline bool RequireReleaseBuild() {
  if (std::strcmp(KVBENCH_BUILD_TYPE, "Release") == 0) return true;
  std::fprintf(stderr,
               "refusing to report from a %s build; configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               KVBENCH_BUILD_TYPE);
  return false;
}

/// JSON output: a number (null when not finite) and a quoted string.
inline void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

inline void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') std::putchar('\\');
    std::putchar(ch);
  }
  std::putchar('"');
}

/// Resolves --workload (and --smoke) or exits 2 with a message.
inline Workload WorkloadFromArgs(const Args& args) {
  const char* name = args.Get("--workload", "");
  const Workload* w = FindWorkload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s' (kv-hot, kv-wide, kv-crash)\n",
                 name);
    std::exit(2);
  }
  return args.Has("--smoke") ? Smoke(*w) : *w;
}

}  // namespace kvbench
