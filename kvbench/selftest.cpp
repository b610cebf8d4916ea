// Checks of the benchmark's own C++ arithmetic (stats.hpp): the
// tail-percentile rule, span self time with overlapping children, and
// the failed-op rule. Prints one line per failed check; exits 1 if any.
//
//   .bench_build/kvbench_selftest     (or: python3 kvbench/run.py --selftest)
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileRule() {
  using kvbench::TailPercentile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);
  // p99 of 1000 samples: rank 990, exactly 10 beyond it.
  EXPECT(TailPercentile(v, 0.99).has_value());
  EXPECT(Near(TailPercentile(v, 0.99).value_or(0), 990));
  EXPECT(kvbench::TailSupported(1000, 0.99));
  v.pop_back();  // 999 samples: rank 990, only 9 beyond
  EXPECT(!TailPercentile(v, 0.99).has_value());
  EXPECT(!kvbench::TailSupported(999, 0.99));
  std::vector<double> twenty;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  EXPECT(Near(TailPercentile(twenty, 0.5).value_or(0), 10));
  twenty.pop_back();
  EXPECT(!TailPercentile(twenty, 0.5).has_value());
  EXPECT(!TailPercentile({}, 0.5).has_value());
  // p999 needs 10000.
  EXPECT(kvbench::TailSupported(10000, 0.999));
  EXPECT(!kvbench::TailSupported(9999, 0.999));
}

void SpanSelfTime() {
  using kvbench::SelfTime;
  // Root [0, 100): children overlap each other ([10,30) and [20,50)),
  // one sticks out past the root's end ([90,120)); covered = 40+10+10.
  EXPECT(SelfTime(0, 100, {{10, 30}, {20, 50}, {60, 70}, {90, 120}}) == 40);
  EXPECT(SelfTime(0, 100, {}) == 100);
  EXPECT(SelfTime(0, 100, {{0, 200}}) == 0);
  EXPECT(SelfTime(0, 100, {{40, 40}, {50, 45}}) == 100);  // empty spans
  EXPECT(SelfTime(0, 100, {{30, 60}, {10, 20}, {15, 35}}) == 50);
  EXPECT(SelfTime(50, 50, {{0, 10}}) == 0);
  EXPECT(kvbench::UnionLength({{0, 10}, {10, 20}}, 0, 100) == 20);
}

void FailedOpRule() {
  using kvbench::FailedOps;
  EXPECT(FailedOps(1000, 1000, true) == 0);
  EXPECT(FailedOps(1000, 990, true) == 10);
  EXPECT(FailedOps(1000, 1003, true) == 0);  // a resumed txn may overshoot
  // One failed verdict fails every op of the run, completed or not.
  EXPECT(FailedOps(45000000, 45000000, false) == 45000000);
  EXPECT(FailedOps(1000, 0, false) == 1000);
}

}  // namespace

int main() {
  PercentileRule();
  SpanSelfTime();
  FailedOpRule();
  std::printf("kvbench_selftest: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
