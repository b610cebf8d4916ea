// The benchmark's own arithmetic in C++: the tail-percentile rule, span
// self time, and the failed-op rule. Header-only so the drivers and
// kvbench_selftest share one copy. Medians and quartiles over repeated
// calls are taken in run.py, with Python's statistics module.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace kvbench {

/// 1-based nearest rank of the q-quantile among n samples.
inline uint64_t NearestRank(uint64_t n, double q) {
  const auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<uint64_t>(rank, 1, n);
}

/// The percentile rule: a q-quantile of `samples` values is reported only
/// when at least `min_beyond` samples lie beyond it. A p99 needs 1000
/// samples, a p50 needs 20.
inline bool TailSupported(uint64_t samples, double q, uint64_t min_beyond = 10) {
  return samples > 0 && samples - NearestRank(samples, q) >= min_beyond;
}

/// The q-quantile of `v` by nearest rank, or nullopt when the rule above
/// does not allow reporting it.
inline std::optional<double> TailPercentile(std::vector<double> v, double q,
                                            uint64_t min_beyond = 10) {
  if (!TailSupported(v.size(), q, min_beyond)) return std::nullopt;
  const uint64_t rank = NearestRank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<int64_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

/// Length of the union of half-open intervals [a, b), each clipped to
/// [lo, hi).
inline uint64_t UnionLength(std::vector<std::pair<uint64_t, uint64_t>> iv,
                            uint64_t lo, uint64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  uint64_t total = 0;
  uint64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

/// A span's self time: its duration minus the part of it that its
/// children's spans cover (children may overlap each other).
inline uint64_t SelfTime(uint64_t t0, uint64_t t1,
                         const std::vector<std::pair<uint64_t, uint64_t>>&
                             children) {
  if (t1 <= t0) return 0;
  return (t1 - t0) - UnionLength(children, t0, t1);
}

/// Ops a run failed: all of them when any verdict or audit of any call
/// failed, otherwise those requested but not completed.
inline uint64_t FailedOps(uint64_t requested, uint64_t completed,
                          bool verdicts_ok) {
  if (!verdicts_ok) return requested;
  return requested - std::min(completed, requested);
}

}  // namespace kvbench
