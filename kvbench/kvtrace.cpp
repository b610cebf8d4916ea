// kvtrace: the traced replay behind the benchmark's per-layer numbers.
//
// It builds what RunKvService builds (a StripedTable of BA locks via
// StripedTable::Create in a shm::Segment, a segment-resident park lot),
// forks 4 workers bound the way the service binds its children (a fresh
// ProcessContext, ProcessBinding with a segment-resident counter
// mirror), and replays each worker's op stream for the same seed: the
// same draws (the reservoir's included), the same grouping of single-key
// ops by stripe, EnterMany on multi-op single-stripe groups, ordered
// multi-stripe transactions.
//
// With --spans 1, each op group (one passage) gets one request id and a
// root span `kv.passage` whose children are `locks.recover`,
// `locks.enter`, `kv.cs` (a stand-in critical section doing the same
// cell, redo and tripwire stores as the service's) and `locks.exit`;
// set-up gets `shm.segment_map` and `striped_table.create`. RMR counts
// are the ProcessContext counter deltas around each passage. Spans stay
// in segment memory until the workers are done; the parent then computes
// percentiles and self times and, with --spans-out FILE, writes every
// span as TSV. With --spans 0 nothing is timed but the whole replay,
// which gives the tracing overhead.
//
//   kvtrace --workload kv-hot --seed 1 --spans 1 [--smoke] [--spans-out F]
//
// Built twice, against rme (instrumented probes) and rme_native (bare
// atomics), so the two passage times give the probe tax. Exit status:
// 0 ok, 1 a check failed, 2 usage.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "locks/lock.hpp"
#include "rmr/counters.hpp"
#include "runtime/striped_table.hpp"
#include "shm/shm_segment.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace kvbench {
namespace {

#ifdef RME_NATIVE_ATOMICS
constexpr bool kNative = true;
#else
constexpr bool kNative = false;
#endif

enum SpanName : uint16_t {
  kPassage,
  kRecover,
  kEnter,
  kCs,
  kExit,
  kSegmentMap,
  kTableCreate,
  kSpanNameCount
};
constexpr const char* kSpanNames[kSpanNameCount] = {
    "kv.passage", "locks.recover",   "locks.enter",         "kv.cs",
    "locks.exit", "shm.segment_map", "striped_table.create"};
constexpr uint16_t kNoParent = 0xffff;

/// One span: [t0, t1) in steady-clock ns. `parent` names the span that
/// caused it (kNoParent for roots); spans of one request share `req`.
struct Span {
  uint64_t t0 = 0, t1 = 0;
  uint32_t req = 0;
  uint16_t name = 0, parent = kNoParent;
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Stand-in for the service's KvCell (same three words).
struct Cell {
  std::atomic<uint64_t> value{0};
  std::atomic<uint64_t> version{0};
  std::atomic<uint64_t> balance{0};
};

/// Stand-in for the service's per-pid redo record.
struct alignas(64) Redo {
  std::atomic<uint64_t> txn{0};
  std::atomic<uint32_t> kind{0};
  std::atomic<uint32_t> nkeys{0};
  std::atomic<uint64_t> key[rme::kKvMaxTxnKeys];
  std::atomic<uint64_t> staged_val[rme::kKvMaxTxnKeys];
  std::atomic<uint64_t> applied{0};
};

/// What a worker leaves in the segment for the parent.
struct alignas(64) WorkerOut {
  uint64_t ops = 0, passages = 0, batched = 0, overlaps = 0;
  uint64_t begin_ns = 0, end_ns = 0;
  uint64_t spans = 0, spans_dropped = 0;
  rme::OpCounters rmr;
  uint32_t finished = 0;
};

constexpr uint64_t kInitialBalance = 100;
constexpr int kMaxBatch = 16;
/// Most spans per op: a one-op passage has a root, a CS and one recover,
/// enter and exit (a 3-key transaction has 11 spans but counts 3 ops).
constexpr uint64_t kMaxSpansPerOp = 5;

/// The value a put with version tag `tag` stores: any fixed 64-bit mix
/// lets the audit detect a torn put.
uint64_t ValueForTag(uint64_t tag) { return CallSeed(tag, 0); }

template <bool kTrace>
class Worker {
 public:
  Worker(const Workload& w, const ZipfKeys& keys, rme::StripedTable* table,
         Cell* cells, Redo* redo, WorkerOut* out, Span* spans,
         uint64_t span_cap, int pid, uint64_t call_seed)
      : w_(w), keys_(keys), table_(table), cells_(cells), redo_(redo),
        out_(out), spans_(spans), span_cap_(span_cap), pid_(pid),
        rng_(WorkerStream(call_seed, pid)) {}

  void Run() {
    const uint64_t quota = w_.trace_ops_per_proc;
    out_->begin_ns = NowNs();
    while (out_->ops < quota) {
      rme::KvOp ops[kMaxBatch];
      const int n_ops = static_cast<int>(std::min<uint64_t>(
          static_cast<uint64_t>(std::clamp(w_.batch_ops, 1, kMaxBatch)),
          quota - out_->ops));
      for (int i = 0; i < n_ops; ++i) ops[i] = DrawOp(rng_, keys_, w_);
      RunSingles(ops, n_ops);
      for (int i = 0; i < n_ops; ++i) {
        if (ops[i].kind == rme::KvOp::kTxn) RunTxn(ops[i]);
      }
    }
    out_->end_ns = NowNs();
    for (uint32_t s = 0; s < table_->stripe_count(); ++s) {
      table_->LockAt(s)->OnProcessDone(pid_);
    }
    out_->finished = 1;
  }

 private:
  /// Single-key ops grouped by stripe, each group split so its puts fit
  /// the redo record — the service's grouping, op for op.
  void RunSingles(const rme::KvOp* ops, int n_ops) {
    int idx[kMaxBatch];
    int n = 0;
    for (int i = 0; i < n_ops; ++i) {
      if (ops[i].kind != rme::KvOp::kTxn) idx[n++] = i;
    }
    std::sort(idx, idx + n, [&](int a, int b) {
      return table_->StripeOf(ops[a].keys[0]) < table_->StripeOf(ops[b].keys[0]);
    });
    int g = 0;
    while (g < n) {
      const uint32_t stripe = table_->StripeOf(ops[idx[g]].keys[0]);
      int end = g;
      int n_put = 0;
      while (end < n && table_->StripeOf(ops[idx[end]].keys[0]) == stripe) {
        const bool is_put = ops[idx[end]].kind == rme::KvOp::kPut;
        if (is_put && n_put == rme::kKvMaxTxnKeys) break;
        if (is_put) ++n_put;
        ++end;
      }
      uint64_t put_keys[rme::kKvMaxTxnKeys];
      int np = 0;
      for (int i = g; i < end; ++i) {
        if (ops[idx[i]].kind == rme::KvOp::kPut) put_keys[np++] = ops[idx[i]].keys[0];
      }
      if (np > 0) PrepareRedo(rme::KvOp::kPut, put_keys, np);
      Passage(&stripe, 1, end - g, [&] {
        for (int i = g; i < end; ++i) {
          if (ops[idx[i]].kind == rme::KvOp::kRead) {
            const Cell& c = cells_[ops[idx[i]].keys[0]];
            sink_ ^= c.value.load(std::memory_order_relaxed) ^
                     c.version.load(std::memory_order_relaxed);
          }
        }
        if (np > 0) ApplyRedo();
      });
      out_->ops += static_cast<uint64_t>(end - g);
      g = end;
    }
  }

  void RunTxn(const rme::KvOp& op) {
    uint64_t keys[rme::kKvMaxTxnKeys];
    int nk = 0;
    for (int j = 0; j < op.nkeys && j < rme::kKvMaxTxnKeys; ++j) {
      bool dup = false;
      for (int q = 0; q < nk; ++q) dup = dup || keys[q] == op.keys[j];
      if (!dup) keys[nk++] = op.keys[j];
    }
    PrepareRedo(rme::KvOp::kTxn, keys, nk);
    uint32_t stripes[rme::kKvMaxTxnKeys];
    int m = 0;
    for (int j = 0; j < nk; ++j) {
      const uint32_t s = table_->StripeOf(keys[j]);
      bool dup = false;
      for (int q = 0; q < m; ++q) dup = dup || stripes[q] == s;
      if (!dup) stripes[m++] = s;
    }
    std::sort(stripes, stripes + m);
    Passage(stripes, m, 1, [&] { ApplyRedo(); });
    out_->ops += static_cast<uint64_t>(nk);
  }

  void PrepareRedo(rme::KvOp::Kind kind, const uint64_t* keys, int nk) {
    const uint64_t txn = redo_->applied.load(std::memory_order_relaxed) + 1;
    redo_->kind.store(kind, std::memory_order_relaxed);
    redo_->nkeys.store(static_cast<uint32_t>(nk), std::memory_order_relaxed);
    for (int i = 0; i < nk; ++i) redo_->key[i].store(keys[i], std::memory_order_relaxed);
    redo_->txn.store(txn, std::memory_order_release);
  }

  /// The service's redo application without its crash probes: puts store
  /// tag-derived values, transactions stage then publish balances.
  void ApplyRedo() {
    const uint64_t txn = redo_->txn.load(std::memory_order_acquire);
    const int nk = static_cast<int>(redo_->nkeys.load(std::memory_order_relaxed));
    auto key = [&](int i) { return redo_->key[i].load(std::memory_order_relaxed); };
    if (redo_->kind.load(std::memory_order_relaxed) == rme::KvOp::kPut) {
      const uint64_t tag = (txn << 8) | static_cast<uint64_t>(pid_);
      for (int i = 0; i < nk; ++i) {
        cells_[key(i)].value.store(ValueForTag(tag), std::memory_order_relaxed);
        cells_[key(i)].version.store(tag, std::memory_order_release);
      }
    } else {
      uint64_t bal[rme::kKvMaxTxnKeys];
      for (int i = 0; i < nk; ++i) {
        bal[i] = cells_[key(i)].balance.load(std::memory_order_relaxed);
      }
      const uint64_t moved = std::min(bal[0], 1 + txn % 50);
      uint64_t given = 0;
      for (int i = 0; i < nk; ++i) {
        uint64_t v = bal[i];
        if (nk > 1 && i == 0) v -= moved;
        if (nk > 1 && i > 0) {
          const uint64_t add = i == nk - 1
                                   ? moved - given
                                   : moved / static_cast<uint64_t>(nk - 1);
          v += add;
          given += add;
        }
        redo_->staged_val[i].store(v, std::memory_order_relaxed);
      }
      for (int i = 0; i < nk; ++i) {
        cells_[key(i)].balance.store(
            redo_->staged_val[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
    }
    redo_->applied.store(txn, std::memory_order_release);
  }

  void Record(uint16_t name, uint16_t parent, uint64_t t0, uint64_t t1) {
    if (out_->spans < span_cap_) {
      spans_[out_->spans++] = Span{t0, t1, req_, name, parent};
    } else {
      ++out_->spans_dropped;
    }
  }

  /// Runs `f`, recording it as a child span of the current passage when
  /// tracing.
  template <typename F>
  void Timed(uint16_t name, F&& f) {
    if constexpr (kTrace) {
      const uint64_t t0 = NowNs();
      f();
      Record(name, kPassage, t0, NowNs());
    } else {
      f();
    }
  }

  /// One passage over `m` sorted distinct stripes, `k` CS bodies long:
  /// Recover and Enter (EnterMany for a batched group) on each stripe in
  /// order, the live tripwire, the body, then Exit in reverse order.
  template <typename Body>
  void Passage(const uint32_t* stripes, int m, int k, Body&& body) {
    ++req_;
    uint64_t t_root = 0;
    rme::OpCounters c0;
    if constexpr (kTrace) {
      c0 = rme::CurrentProcess().counters;
      t_root = NowNs();
    }
    const bool batched =
        m == 1 && k > 1 && table_->LockAt(stripes[0])->SupportsEnterMany();
    const auto me = static_cast<uint32_t>(pid_) + 1;
    for (int j = 0; j < m; ++j) {
      rme::RecoverableLock* lk = table_->LockAt(stripes[j]);
      Timed(kRecover, [&] { lk->Recover(pid_); });
      Timed(kEnter, [&] {
        if (batched) {
          lk->EnterMany(pid_, k);
        } else {
          lk->Enter(pid_);
        }
      });
      rme::StripeEntry& e = table_->EntryAt(stripes[j]);
      const uint32_t prev = e.owner.exchange(me, std::memory_order_acq_rel);
      if (prev != 0 && prev != me) ++out_->overlaps;
      e.acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (batched) e.batched_passages.fetch_add(1, std::memory_order_relaxed);
    }
    Timed(kCs, body);
    for (int j = m - 1; j >= 0; --j) {
      table_->EntryAt(stripes[j]).owner.store(0, std::memory_order_release);
      rme::RecoverableLock* lk = table_->LockAt(stripes[j]);
      Timed(kExit, [&] {
        if (batched) {
          lk->ExitMany(pid_);
        } else {
          lk->Exit(pid_);
        }
      });
    }
    if constexpr (kTrace) {
      Record(kPassage, kNoParent, t_root, NowNs());
      out_->rmr += rme::CurrentProcess().counters - c0;
    }
    ++out_->passages;
    if (batched) ++out_->batched;
    // The service's full latency reservoir replaces a sample by a draw
    // from this generator after each passage (Algorithm R).
    if (out_->passages > kReservoirCapacity) {
      (void)rng_.NextBounded(out_->passages);
    }
  }

  const Workload& w_;
  const ZipfKeys& keys_;
  rme::StripedTable* table_;
  Cell* cells_;
  Redo* redo_;
  WorkerOut* out_;
  Span* spans_;
  uint64_t span_cap_;
  int pid_;
  rme::Prng rng_;
  uint32_t req_ = 0;
  uint64_t sink_ = 0;
};

/// Everything the workers share, placed in the segment before the fork.
struct Shared {
  rme::rmr_detail::ParkLot lot;
  rme::SharedOpCounters mirrors[kProcs];
  Redo redo[kProcs];
  WorkerOut out[kProcs];
  Span* spans[kProcs] = {};
};

/// Per-name span durations, per-name self-time totals, and the summed
/// root (passage) durations, from every worker's buffer.
struct SpanStats {
  std::vector<double> dur[kSpanNameCount];
  double self_ns[kSpanNameCount] = {};
};

void Accumulate(const Span* spans, uint64_t n, SpanStats& st) {
  // A request's spans are contiguous, children first and the root last
  // (a worker runs one passage at a time), so one pass suffices.
  std::vector<std::pair<uint64_t, uint64_t>> children;
  for (uint64_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    st.dur[s.name].push_back(static_cast<double>(s.t1 - s.t0));
    if (s.parent != kNoParent) {
      children.emplace_back(s.t0, s.t1);
      // Leaf spans: the replay records nothing below them.
      st.self_ns[s.name] += static_cast<double>(s.t1 - s.t0);
      continue;
    }
    st.self_ns[s.name] += static_cast<double>(SelfTime(s.t0, s.t1, children));
    children.clear();
  }
}

template <bool kTrace>
int Replay(const Args& args) {
  const Workload w = WorkloadFromArgs(args);
  const uint64_t seed = args.GetU64("--seed", 1);
  const char* spans_out = args.Get("--spans-out", nullptr);
  const uint64_t call_seed = CallSeed(seed, 0);
  const ZipfKeys keys(kKeys, w.theta);
  // The last batch may overshoot the quota by its transactions' extra keys.
  const uint64_t span_cap =
      kTrace ? (w.trace_ops_per_proc + kMaxBatch * kTxnKeys) * kMaxSpansPerOp
             : 0;

  const size_t bytes =
      sizeof(Shared) + kKeys * sizeof(Cell) +
      w.stripes * (sizeof(rme::StripeEntry) + LockBytes() * 5 / 4 + 4096) +
      kProcs * span_cap * sizeof(Span) + (16u << 20);
  std::vector<Span> setup_spans;
  uint64_t t0 = NowNs();
  rme::shm::Segment seg(bytes);
  setup_spans.push_back({t0, NowNs(), 0, kSegmentMap, kNoParent});
  Shared* sh = seg.New<Shared>();
  Cell* cells = seg.NewArray<Cell>(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    cells[k].balance.store(kInitialBalance, std::memory_order_relaxed);
  }
  for (int p = 0; p < kProcs && kTrace; ++p) {
    // Raw storage: only the pages a worker writes get faulted in.
    sh->spans[p] = static_cast<Span*>(
        seg.Allocate(span_cap * sizeof(Span), alignof(Span)));
  }
  t0 = NowNs();
  rme::StripedTable* table = rme::StripedTable::Create(seg, kLock, w.stripes, kProcs);
  setup_spans.push_back({t0, NowNs(), 0, kTableCreate, kNoParent});
  rme::rmr_detail::ParkLot* prev_lot = rme::InstallParkLot(&sh->lot);
  rme::spin_config().spin_budget_us = static_cast<uint32_t>(kSpinBudgetUs);

  pid_t kids[kProcs];
  for (int pid = 0; pid < kProcs; ++pid) {
    kids[pid] = ::fork();
    if (kids[pid] < 0) {
      std::perror("fork");
      std::_Exit(2);
    }
    if (kids[pid] == 0) {
      rme::CurrentProcess() = rme::ProcessContext{};
      rme::ProcessBinding bind(pid, nullptr, &sh->mirrors[pid]);
      rme::WakeAllParked();
      Worker<kTrace>(w, keys, table, cells, &sh->redo[pid], &sh->out[pid],
                     sh->spans[pid], span_cap, pid, call_seed)
          .Run();
      std::_Exit(0);
    }
  }
  std::vector<std::string> failures;
  for (pid_t kid : kids) {
    int status = 0;
    if (::waitpid(kid, &status, 0) != kid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      failures.emplace_back("worker did not exit cleanly");
    }
  }
  rme::InstallParkLot(prev_lot);

  uint64_t passages = 0, batched = 0, ops = 0, overlaps = 0, dropped = 0;
  uint64_t begin = ~uint64_t{0}, end = 0;
  rme::OpCounters rmr;
  SpanStats st;
  for (const Span& s : setup_spans) Accumulate(&s, 1, st);
  for (int p = 0; p < kProcs; ++p) {
    const WorkerOut& o = sh->out[p];
    if (o.finished == 0 || o.ops < w.trace_ops_per_proc) {
      failures.emplace_back("worker did not finish its ops");
    }
    passages += o.passages;
    batched += o.batched;
    ops += o.ops;
    overlaps += o.overlaps;
    dropped += o.spans_dropped;
    begin = std::min(begin, o.begin_ns);
    end = std::max(end, o.end_ns);
    rmr += o.rmr;
    if (kTrace) Accumulate(sh->spans[p], o.spans, st);
  }
  if (overlaps != 0) failures.emplace_back("live tripwire overlap");
  if (dropped != 0) failures.emplace_back("span buffer overflow");
  uint64_t total_balance = 0, torn = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    total_balance += cells[k].balance.load(std::memory_order_relaxed);
    const uint64_t v = cells[k].version.load(std::memory_order_relaxed);
    if (v != 0 && cells[k].value.load(std::memory_order_relaxed) != ValueForTag(v)) {
      ++torn;
    }
  }
  if (total_balance != kInitialBalance * kKeys) {
    failures.emplace_back("conservation audit");
  }
  if (torn != 0) failures.emplace_back("put-integrity audit");

  if (spans_out != nullptr && kTrace) {
    std::FILE* f = std::fopen(spans_out, "w");
    if (f == nullptr) {
      failures.emplace_back("cannot write --spans-out");
    } else {
      std::fprintf(f, "pid\treq\tname\tparent\tt0_ns\tt1_ns\n");
      auto dump = [f](int pid, const Span& s) {
        std::fprintf(f, "%d\t%u\t%s\t%s\t%llu\t%llu\n", pid, s.req,
                     kSpanNames[s.name],
                     s.parent == kNoParent ? "-" : kSpanNames[s.parent],
                     static_cast<unsigned long long>(s.t0),
                     static_cast<unsigned long long>(s.t1));
      };
      for (const Span& s : setup_spans) dump(-1, s);
      for (int p = 0; p < kProcs; ++p) {
        for (uint64_t i = 0; i < sh->out[p].spans; ++i) dump(p, sh->spans[p][i]);
      }
      std::fclose(f);
    }
  }

  const double wall_s = static_cast<double>(end - begin) / 1e9;
  const double n = static_cast<double>(std::max<uint64_t>(passages, 1));
  auto pct = [&](SpanName name, double q) {
    return TailPercentile(st.dur[name], q).value_or(std::nan(""));
  };
  double root_ns = 0;
  for (double d : st.dur[kPassage]) root_ns += d;
  std::map<std::string, double> layers;
  if (kTrace) {
    layers["locks.recover_ns.p50"] = pct(kRecover, 0.50);
    layers["locks.enter_ns.p50"] = pct(kEnter, 0.50);
    layers["locks.enter_ns.p99"] = pct(kEnter, 0.99);
    layers["locks.exit_ns.p50"] = pct(kExit, 0.50);
    layers["rmr.ops_per_passage"] = static_cast<double>(rmr.ops) / n;
    layers["rmr.cc_per_passage"] = static_cast<double>(rmr.cc_rmrs) / n;
    layers["rmr.dsm_per_passage"] = static_cast<double>(rmr.dsm_rmrs) / n;
    layers["kv.self_ns_per_passage"] = st.self_ns[kPassage] / n;
    layers["striped_table.create_s"] = st.self_ns[kTableCreate] / 1e9;
  }

  std::printf("{\"native\": %s, \"spans\": %s, \"workload\": \"%s\", "
              "\"correct\": %s, \"failures\": [",
              kNative ? "true" : "false", kTrace ? "true" : "false", w.name,
              failures.empty() ? "true" : "false");
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) std::printf(", ");
    PrintJsonString(failures[i]);
  }
  std::printf("], \"ops\": %llu, \"passages\": %llu, \"batched\": %llu, "
              "\"wall_s\": ",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(passages),
              static_cast<unsigned long long>(batched));
  PrintJsonNumber(wall_s);
  std::printf(", \"passage_rate\": ");
  PrintJsonNumber(wall_s > 0 ? static_cast<double>(passages) / wall_s : 0.0);
  std::printf(", \"passage_ns_mean\": ");
  PrintJsonNumber(kTrace ? root_ns / n : std::nan(""));
  std::printf(", \"layers\": {");
  bool first = true;
  for (const auto& [name, v] : layers) {
    std::printf("%s\"%s\": ", first ? "" : ", ", name.c_str());
    PrintJsonNumber(v);
    first = false;
  }
  // Self time by span name, as a share of all passage time.
  std::printf("}, \"self_share\": {");
  for (int s = kPassage; s <= kExit && kTrace; ++s) {
    std::printf("%s\"%s\": ", s == kPassage ? "" : ", ", kSpanNames[s]);
    PrintJsonNumber(root_ns > 0 ? st.self_ns[s] / root_ns : 0.0);
  }
  std::printf("}}\n");
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) {
  const kvbench::Args args{argc, argv};
  if (!kvbench::RequireReleaseBuild()) return 2;
  return std::string(args.Get("--spans", "1")) == "0"
             ? kvbench::Replay<false>(args)
             : kvbench::Replay<true>(args);
}
