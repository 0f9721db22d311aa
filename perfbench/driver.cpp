// Repository benchmark driver: one closed-loop RTM shot per cycle against
// core::Engine, driven through the core::Runtime calls from one thread per
// rank, repeated for --seconds and reported as medians.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out <dir>]
//
// Each cycle builds a fresh sim::Cluster and Engine (timed as set-up), runs
// the forward pass (Checkpoint per iteration) and the backward pass
// (RecoverSize + Restore per iteration, every byte verified), waits until
// the terminal store holds every checkpoint, and shuts the engine down.
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 cycles alternate untraced/traced and it carries the per-layer
// metrics, layer self times and the tracing overhead. Spans of the last
// traced cycle are written to <out>/spans-<workload>-seed<n>.json.
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hpp"
#include "core/engine.hpp"
#include "core/tier_stack.hpp"
#include "rtm/workload.hpp"
#include "simgpu/cluster.hpp"
#include "util/clock.hpp"

namespace perfbench {
namespace {

namespace core = ckpt::core;
namespace sim = ckpt::sim;
namespace storage = ckpt::storage;
namespace util = ckpt::util;

constexpr int kCkptsPerRank = 384;
constexpr auto kComputeInterval = std::chrono::milliseconds(1);
constexpr int kMaxRanks = 4;
constexpr int kMinSetups = 3;  // set-up samples per untraced run
constexpr auto kLandingTimeout = std::chrono::seconds(30);

struct Workload {
  const char* name;
  const char* tiers;
  const char* terminal;
  Order order;
  bool hints;
  bool wait_before_restore;
};

constexpr const char* kLocalStack =
    "gpu:gpucache:4Mi;host:cache:32Mi;ssd:durable:mem";

const Workload kWorkloads[] = {
    {"adjoint-hinted", kLocalStack, "ssd", Order::kReverse, true, false},
    {"replay-unhinted", kLocalStack, "ssd", Order::kIrregular, false, false},
    {"persist-remote",
     "gpu:gpucache:4Mi;host:cache:32Mi;ssd:durable:mem;"
     "remote:durable:s3://ckpts?part=256Ki&lat_us=100&group=8&deadline_ms=50",
     "remote", Order::kReverse, true, true},
};

// --- One cycle -------------------------------------------------------------

/// App-thread accounting of one rank over one shot.
struct RankTally {
  double blocked_s = 0;  // every Runtime call of the shot
  double ckpt_s = 0;
  double restore_s = 0;
  double wait_s = 0;     // WaitForFlushes before the backward pass
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t restore_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t end_ns = 0;
};

struct OpSnap {
  std::uint64_t count = 0, bytes = 0, busy_ns = 0, failed = 0;
};
struct LedgerSnap {
  OpSnap put, get;
};

/// Topology limiter classes, in the order ActiveLimiters() fills them.
constexpr const char* kLimiterClassNames[] = {"d2d",      "pcie_d2h", "pcie_h2d",
                                              "host_mem", "nvme",     "pfs"};
constexpr std::size_t kNumLimiterClasses = std::size(kLimiterClassNames);

/// The distinct limiters of each class that serve the active ranks.
using LimiterClasses = std::vector<std::vector<const util::RateLimiter*>>;

/// Marks the shot start when the last rank reaches the start barrier.
struct MarkStart {
  std::int64_t* at;
  void operator()() const noexcept { *at = util::NowNs(); }
};

struct Cycle {
  bool traced = false;
  double setup_s = 0, cluster_build_s = 0, init_s = 0;
  double shot_s = 0, durable_s = 0, shutdown_s = 0;
  std::int64_t shot_start_ns = 0;
  std::vector<RankTally> ranks;
  std::vector<core::RankMetrics> metrics;
  std::vector<double> limiter_bytes;     // admitted during the shot, per class
  std::vector<double> limiter_capacity;  // bytes/s over the class's limiters
  std::map<std::string, LedgerSnap> storage;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_error;
  std::vector<Span> spans;
};

LimiterClasses ActiveLimiters(const sim::Topology& topo, int num_ranks) {
  LimiterClasses classes(kNumLimiterClasses);
  const auto add = [](std::vector<const util::RateLimiter*>& c,
                      const util::RateLimiter& l) {
    if (std::find(c.begin(), c.end(), &l) == c.end()) c.push_back(&l);
  };
  for (int r = 0; r < num_ranks; ++r) {
    const sim::GpuId gpu = topo.gpu_of_rank(r);
    add(classes[0], topo.d2d(gpu));
    add(classes[1], topo.pcie_link(gpu, sim::Topology::LinkDir::kD2H));
    add(classes[2], topo.pcie_link(gpu, sim::Topology::LinkDir::kH2D));
    add(classes[3], topo.host_mem(gpu));
    add(classes[4], topo.nvme_for_rank(r));
    add(classes[5], topo.pfs());
  }
  return classes;
}

std::vector<double> AdmittedBytes(const LimiterClasses& classes) {
  std::vector<double> out;
  for (const auto& c : classes) {
    double sum = 0;
    for (const util::RateLimiter* l : c) {
      sum += static_cast<double>(l->admitted_bytes());
    }
    out.push_back(sum);
  }
  return out;
}

/// A built cluster and engine, the set-up whose time setup_s reports.
/// Members are destroyed in reverse order: the engine's stores reference the
/// cluster's topology, so the engine goes first.
struct Stack {
  std::unique_ptr<sim::Cluster> cluster;
  LedgerMap ledgers;
  std::unique_ptr<core::Engine> engine;
  double cluster_build_s = 0, init_s = 0, setup_s = 0;
  std::string error;
};

std::unique_ptr<Stack> BuildStack(const Workload& w, int num_ranks) {
  auto s = std::make_unique<Stack>();
  const util::Stopwatch setup;
  {
    const ScopedSpan span("simgpu.cluster_build", Layer::kSimgpu, -1, -1);
    const util::Stopwatch sw;
    s->cluster = std::make_unique<sim::Cluster>(sim::TopologyConfig::Scaled());
    s->cluster_build_s = sw.ElapsedSec();
  }
  auto stack = core::ParseTierStack(
      w.tiers, w.terminal,
      MakeTimedStoreFactory(s->cluster->topology(), s->ledgers));
  if (!stack.ok()) {
    s->error = "tier stack: " + stack.status().ToString();
    return s;
  }
  {
    const ScopedSpan span("core.init", Layer::kCore, -1, -1);
    const util::Stopwatch sw;
    s->engine = std::make_unique<core::Engine>(*s->cluster, std::move(*stack),
                                               core::EngineOptions{}, num_ranks);
    s->init_s = sw.ElapsedSec();
  }
  s->setup_s = setup.ElapsedSec();
  return s;
}

/// Times one Runtime call on the app thread: as blocked time, into `bucket`
/// when given, and as a core span keyed by the checkpoint.
template <typename F>
auto TimedCall(RankTally& t, double RankTally::*bucket, const char* name,
               int rank, std::int64_t version, F&& call) {
  const ScopedSpan span(name, Layer::kCore, rank, version);
  const std::int64_t start = util::NowNs();
  auto result = call();
  const double dt = static_cast<double>(util::NowNs() - start) * 1e-9;
  t.blocked_s += dt;
  if (bucket != nullptr) t.*bucket += dt;
  return result;
}

void RunRank(const Workload& w, const RankInputs& in, sim::Cluster& cluster,
             core::Runtime& rt, int r, std::barrier<MarkStart>& go,
             RankTally& t) {
  const std::uint64_t max_size = *std::max_element(in.sizes.begin(), in.sizes.end());
  util::StatusOr<sim::BytePtr> buf_or = util::InvalidArgument("unallocated");
  {
    const ScopedSpan span("simgpu.alloc", Layer::kSimgpu, r, -1);
    buf_or = cluster.device(r).Allocate(max_size);
  }
  go.arrive_and_wait();  // shot start
  if (!buf_or.ok()) {
    ++t.attempted;
    ++t.failed;
    t.end_ns = util::NowNs();
    return;
  }
  sim::BytePtr buf = *buf_or;
  const auto check = [&t](const util::Status& st) {
    if (!st.ok()) {
      ++t.attempted;
      ++t.failed;
    }
  };

  if (w.hints) {  // all hints: the whole restore order before the forward pass
    for (const Version v : in.order) {
      check(TimedCall(t, nullptr, "core.prefetch_enqueue", r,
                      static_cast<std::int64_t>(v),
                      [&] { return rt.PrefetchEnqueue(r, v); }));
    }
  }
  for (std::size_t i = 0; i < in.sizes.size(); ++i) {
    util::PreciseSleep(kComputeInterval);
    const auto v = static_cast<Version>(i);
    const std::uint64_t size = in.sizes[i];
    ckpt::rtm::FillPattern(r, v, buf, size);
    ++t.attempted;
    const util::Status st =
        TimedCall(t, &RankTally::ckpt_s, "core.checkpoint", r,
                  static_cast<std::int64_t>(v),
                  [&] { return rt.Checkpoint(r, v, buf, size); });
    if (st.ok()) {
      t.ckpt_bytes += size;
    } else {
      ++t.failed;
    }
  }
  if (w.wait_before_restore) {
    check(TimedCall(t, &RankTally::wait_s, "core.wait_for_flushes", r, -1,
                    [&] { return rt.WaitForFlushes(r); }));
  }
  check(TimedCall(t, nullptr, "core.prefetch_start", r, -1,
                  [&] { return rt.PrefetchStart(r); }));
  for (const Version v : in.order) {
    util::PreciseSleep(kComputeInterval);
    const std::uint64_t want = in.sizes[static_cast<std::size_t>(v)];
    ++t.attempted;
    const auto size = TimedCall(t, nullptr, "core.recover_size", r,
                                static_cast<std::int64_t>(v),
                                [&] { return rt.RecoverSize(r, v); });
    const util::Status st =
        TimedCall(t, &RankTally::restore_s, "core.restore", r,
                  static_cast<std::int64_t>(v),
                  [&] { return rt.Restore(r, v, buf, max_size); });
    if (st.ok() && size.ok() && *size == want &&
        ckpt::rtm::CheckPattern(r, v, buf, want)) {
      t.restore_bytes += want;
    } else {
      ++t.failed;
    }
  }
  t.end_ns = util::NowNs();
  (void)cluster.device(r).Free(buf);
}

LedgerSnap Snap(const StoreLedger& l) {
  const auto op = [](const OpLedger& o) {
    return OpSnap{o.count.load(), o.bytes.load(), o.busy_ns.load(),
                  o.failed.load()};
  };
  return LedgerSnap{op(l.put), op(l.get)};
}

Cycle RunCycle(const Workload& w, const std::vector<RankInputs>& inputs,
               bool traced) {
  const int num_ranks = static_cast<int>(inputs.size());
  Cycle cy;
  cy.traced = traced;
  if (traced) Tracer::Get().Start();
  const auto fail = [&cy](std::uint64_t n, const std::string& why) {
    cy.attempted += n;
    cy.failed += n;
    if (cy.first_error.empty()) cy.first_error = why;
  };

  auto s = BuildStack(w, num_ranks);
  cy.setup_s = s->setup_s;
  cy.cluster_build_s = s->cluster_build_s;
  cy.init_s = s->init_s;
  if (s->engine == nullptr) {
    fail(1, s->error);
    Tracer::Get().Stop();
    return cy;
  }
  core::Engine& engine = *s->engine;
  const auto classes = ActiveLimiters(s->cluster->topology(), num_ranks);
  const std::vector<double> admitted_before = AdmittedBytes(classes);

  // --- The shot: forward plus backward pass on every rank.
  cy.ranks.resize(static_cast<std::size_t>(num_ranks));
  std::int64_t shot_start = 0;
  {
    std::barrier<MarkStart> go(num_ranks, MarkStart{&shot_start});
    std::vector<std::jthread> threads;
    for (int r = 0; r < num_ranks; ++r) {
      threads.emplace_back([&, r] {
        RunRank(w, inputs[static_cast<std::size_t>(r)], *s->cluster, engine, r,
                go, cy.ranks[static_cast<std::size_t>(r)]);
      });
    }
  }
  std::int64_t shot_end = shot_start;
  for (const RankTally& t : cy.ranks) {
    shot_end = std::max(shot_end, t.end_ns);
    cy.attempted += t.attempted;
    cy.failed += t.failed;
  }
  if (cy.failed > 0) cy.first_error = "checkpoint/restore call failed or mismatched";
  cy.shot_s = static_cast<double>(shot_end - shot_start) * 1e-9;
  cy.shot_start_ns = shot_start;

  // --- Durability: every checkpoint must land in the terminal store.
  for (int r = 0; r < num_ranks; ++r) {
    const ScopedSpan span("core.drain", Layer::kCore, r, -1);
    if (util::Status st = engine.WaitForFlushes(r); !st.ok()) {
      fail(1, "WaitForFlushes: " + st.ToString());
    }
  }
  const std::string terminal = w.terminal;
  const StoreLedger& member = *s->ledgers.at(terminal);
  const auto landed_it = s->ledgers.find(terminal + ".landed");
  const StoreLedger& landed =
      landed_it != s->ledgers.end() ? *landed_it->second : member;
  const storage::ObjectStore& terminal_store =
      *engine.tiers()[static_cast<std::size_t>(*engine.tiers().IndexOf(terminal))]
           .store;
  storage::StoreStats stats;
  const auto deadline = util::Clock::now() + kLandingTimeout;
  while (true) {  // a write-back buffer acknowledges before its bytes land
    stats = {};
    (void)terminal_store.CollectStats(stats);
    const bool all_landed =
        landed.put.bytes.load() == member.put.bytes.load() &&
        stats.agg_pending_members == 0 && stats.agg_pending_bytes == 0;
    if (all_landed) break;
    if (util::Clock::now() > deadline) {
      fail(std::max<std::uint64_t>(1, stats.agg_pending_members),
           "terminal store: buffered members never landed");
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  cy.durable_s =
      static_cast<double>(landed.last_put_end_ns() - shot_start) * 1e-9;
  if (stats.agg_group_put_failures > 0) {
    fail(stats.agg_group_put_failures, "terminal store: group puts failed");
  }
  std::vector<unsigned char> seen(
      static_cast<std::size_t>(num_ranks * kCkptsPerRank), 0);
  for (const storage::ObjectKey& k : member.put_keys()) {
    if (k.rank >= 0 && k.rank < num_ranks && k.version < kCkptsPerRank) {
      seen[static_cast<std::size_t>(k.rank * kCkptsPerRank) + k.version] = 1;
    }
  }
  const auto missing = static_cast<std::uint64_t>(
      std::count(seen.begin(), seen.end(), static_cast<unsigned char>(0)));
  if (missing > 0) fail(missing, "checkpoints missing from the terminal store");

  const std::vector<double> admitted_after = AdmittedBytes(classes);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    cy.limiter_bytes.push_back(admitted_after[c] - admitted_before[c]);
    double cap = 0;
    for (const util::RateLimiter* l : classes[c]) {
      cap += static_cast<double>(l->rate());
    }
    cy.limiter_capacity.push_back(cap);
  }
  for (int r = 0; r < num_ranks; ++r) cy.metrics.push_back(engine.metrics(r));
  {
    const ScopedSpan span("core.shutdown", Layer::kCore, -1, -1);
    const util::Stopwatch sw;
    engine.Shutdown();
    cy.shutdown_s = sw.ElapsedSec();
  }
  for (const auto& [label, ledger] : s->ledgers) cy.storage[label] = Snap(*ledger);
  Tracer::Get().Stop();
  s.reset();  // joins every thread that may have recorded spans
  if (traced) cy.spans = Tracer::Get().Collect();
  return cy;
}

// --- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

template <typename F>
double MedianOf(const std::vector<const Cycle*>& cycles, F&& f) {
  std::vector<double> v;
  for (const Cycle* c : cycles) v.push_back(f(*c));
  return Median(std::move(v));
}

double MedianOverRanks(const Cycle& c, double RankTally::*field) {
  std::vector<double> v;
  for (const RankTally& t : c.ranks) v.push_back(t.*field);
  return Median(std::move(v));
}

double MeanRate(const Cycle& c, std::uint64_t RankTally::*bytes,
                double RankTally::*secs) {
  double sum = 0;
  for (const RankTally& t : c.ranks) {
    if (t.*secs > 0) sum += static_cast<double>(t.*bytes) / (t.*secs) / 1e6;
  }
  return c.ranks.empty() ? 0.0 : sum / static_cast<double>(c.ranks.size());
}

struct EndToEnd {
  double shot_s, blocked_s, ckpt_MBps, restore_MBps, durable_s, setup_s;
};

EndToEnd Summarize(const std::vector<const Cycle*>& cycles,
                   std::vector<double> setups) {
  EndToEnd e{};
  e.shot_s = MedianOf(cycles, [](const Cycle& c) { return c.shot_s; });
  e.blocked_s = MedianOf(cycles, [](const Cycle& c) {
    return MedianOverRanks(c, &RankTally::blocked_s);
  });
  e.ckpt_MBps = MedianOf(cycles, [](const Cycle& c) {
    return MeanRate(c, &RankTally::ckpt_bytes, &RankTally::ckpt_s);
  });
  e.restore_MBps = MedianOf(cycles, [](const Cycle& c) {
    return MeanRate(c, &RankTally::restore_bytes, &RankTally::restore_s);
  });
  e.durable_s = MedianOf(cycles, [](const Cycle& c) { return c.durable_s; });
  e.setup_s = Median(std::move(setups));
  return e;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Span durations (us) and mean CPU (us) of spans named `name`.
struct CallStats {
  double p50_us = 0, p99_us = 0, cpu_us = 0;
};
CallStats CallStatsOf(const std::vector<const Cycle*>& cycles, const char* name) {
  std::vector<double> dur;
  double cpu = 0;
  for (const Cycle* c : cycles) {
    for (const Span& s : c->spans) {
      if (std::strcmp(s.name, name) != 0) continue;
      dur.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      cpu += static_cast<double>(s.cpu_ns) * 1e-3;
    }
  }
  CallStats out;
  if (dur.empty()) return out;
  out.cpu_us = cpu / static_cast<double>(dur.size());
  out.p50_us = Percentile(dur, 50);
  out.p99_us = Percentile(std::move(dur), 99);
  return out;
}

std::vector<Metric> PerLayer(const std::vector<const Cycle*>& traced,
                             const EndToEnd& traced_e2e,
                             const EndToEnd& untraced_e2e) {
  std::vector<Metric> m;
  const auto med = [&traced](auto&& f) { return MedianOf(traced, f); };
  const auto sum_ranks = [](const Cycle& c, auto&& f) {
    double s = 0;
    for (const core::RankMetrics& rm : c.metrics) s += f(rm);
    return s;
  };
  const auto ckpt_bytes = [&](const Cycle& c) {
    return sum_ranks(c, [](const core::RankMetrics& rm) {
      return static_cast<double>(rm.bytes_checkpointed);
    });
  };

  // simgpu
  m.push_back({"simgpu.cluster_build_s",
               med([](const Cycle& c) { return c.cluster_build_s; }), "s"});
  for (std::size_t k = 0; k < kNumLimiterClasses; ++k) {
    const std::string base = std::string("simgpu.") + kLimiterClassNames[k];
    m.push_back({base + ".bytes_per_user_byte", med([&](const Cycle& c) {
                   const double user = ckpt_bytes(c);
                   return user > 0 ? c.limiter_bytes[k] / user : 0.0;
                 }),
                 "ratio"});
    m.push_back({base + ".util", med([&](const Cycle& c) {
                   const double cap = c.limiter_capacity[k] * c.shot_s;
                   return cap > 0 ? c.limiter_bytes[k] / cap : 0.0;
                 }),
                 "ratio"});
  }

  // core: timed calls
  m.push_back({"core.init_s", med([](const Cycle& c) { return c.init_s; }), "s"});
  for (const char* call : {"checkpoint", "restore"}) {
    const CallStats cs = CallStatsOf(traced, (std::string("core.") + call).c_str());
    const std::string base = std::string("core.") + call;
    m.push_back({base + ".p50_us", cs.p50_us, "us"});
    m.push_back({base + ".p99_us", cs.p99_us, "us"});
    m.push_back({base + ".cpu_us", cs.cpu_us, "us"});
  }
  m.push_back({"core.wait_for_flushes_s", med([](const Cycle& c) {
                 return MedianOverRanks(c, &RankTally::wait_s);
               }),
               "s"});
  m.push_back({"core.prefetch_enqueue.p99_us",
               CallStatsOf(traced, "core.prefetch_enqueue").p99_us, "us"});
  m.push_back({"core.shutdown_s", med([](const Cycle& c) { return c.shutdown_s; }),
               "s"});

  // core: counters from Runtime::metrics
  // Restores served per tier role (device cache, host cache, durable store).
  const auto restore_share = [&](const char* name,
                                 std::uint64_t core::RankMetrics::*field) {
    m.push_back({name, med([&](const Cycle& c) {
                   const double part = sum_ranks(c, [&](const core::RankMetrics& rm) {
                     return static_cast<double>(rm.*field);
                   });
                   const double all = sum_ranks(c, [](const core::RankMetrics& rm) {
                     return static_cast<double>(rm.restores_from_gpu +
                                                rm.restores_from_host +
                                                rm.restores_from_store);
                   });
                   return all > 0 ? part / all : 0.0;
                 }),
                 "ratio"});
  };
  restore_share("core.restore_gpu_share", &core::RankMetrics::restores_from_gpu);
  restore_share("core.restore_host_share", &core::RankMetrics::restores_from_host);
  restore_share("core.restore_store_share", &core::RankMetrics::restores_from_store);
  const auto counter = [&](const char* name, auto field, const char* unit) {
    m.push_back({name, med([&](const Cycle& c) {
                   return sum_ranks(c, [&](const core::RankMetrics& rm) {
                     return static_cast<double>(field(rm));
                   });
                 }),
                 unit});
  };
  counter("core.prefetch.promotions",
          [](const core::RankMetrics& rm) { return rm.prefetch_promotions; },
          "count");
  counter("core.prefetch.aborts",
          [](const core::RankMetrics& rm) { return rm.prefetch_aborts; }, "count");
  const auto n_ranks = [](const Cycle& c) {
    return std::max<double>(1.0, static_cast<double>(c.metrics.size()));
  };
  m.push_back({"core.reserve_wait_write_s", med([&](const Cycle& c) {
                 return sum_ranks(c, [](const core::RankMetrics& rm) {
                          return rm.reserve_wait_write_s;
                        }) / n_ranks(c);
               }),
               "s"});
  m.push_back({"core.reserve_wait_prefetch_s", med([&](const Cycle& c) {
                 return sum_ranks(c, [](const core::RankMetrics& rm) {
                          return rm.reserve_wait_prefetch_s;
                        }) / n_ranks(c);
               }),
               "s"});
  m.push_back({"core.reserve.stale_ratio", med([&](const Cycle& c) {
                 const double rounds = sum_ranks(c, [](const core::RankMetrics& rm) {
                   return static_cast<double>(rm.reserve_rounds);
                 });
                 const double stale = sum_ranks(c, [](const core::RankMetrics& rm) {
                   return static_cast<double>(rm.reserve_plans_stale);
                 });
                 return rounds > 0 ? stale / rounds : 0.0;
               }),
               "ratio"});
  const auto evictions = [](std::size_t tier) {
    return [tier](const core::RankMetrics& rm) {
      return tier < rm.evictions_from_tier.size() ? rm.evictions_from_tier[tier]
                                                  : std::uint64_t{0};
    };
  };
  counter("core.evictions.gpu", evictions(0), "count");
  counter("core.evictions.host", evictions(1), "count");
  m.push_back({"core.bytes_checkpointed", med(ckpt_bytes), "bytes"});

  // storage
  for (const char* tier : {"ssd", "remote", "remote.landed"}) {
    for (const char* op : {"put", "get"}) {
      const std::string base = std::string("storage.") + tier + "." + op;
      const auto snap = [tier, op](const Cycle& c) {
        const auto it = c.storage.find(tier);
        if (it == c.storage.end()) return OpSnap{};
        return std::strcmp(op, "put") == 0 ? it->second.put : it->second.get;
      };
      m.push_back({base + ".count", med([&](const Cycle& c) {
                     return static_cast<double>(snap(c).count);
                   }),
                   "count"});
      m.push_back({base + ".MB", med([&](const Cycle& c) {
                     return static_cast<double>(snap(c).bytes) / 1e6;
                   }),
                   "MB"});
      const CallStats cs = CallStatsOf(traced, base.c_str());
      m.push_back({base + ".p50_us", cs.p50_us, "us"});
      m.push_back({base + ".p99_us", cs.p99_us, "us"});
      m.push_back({base + ".busy_s", med([&](const Cycle& c) {
                     return static_cast<double>(snap(c).busy_ns) * 1e-9;
                   }),
                   "s"});
      m.push_back({base + ".failed", med([&](const Cycle& c) {
                     return static_cast<double>(snap(c).failed);
                   }),
                   "count"});
    }
  }
  m.push_back({"storage.remote.members_per_landed_put", med([](const Cycle& c) {
                 const auto a = c.storage.find("remote");
                 const auto b = c.storage.find("remote.landed");
                 if (a == c.storage.end() || b == c.storage.end() ||
                     b->second.put.count == 0) {
                   return 0.0;
                 }
                 return static_cast<double>(a->second.put.count) /
                        static_cast<double>(b->second.put.count);
               }),
               "ratio"});

  // Self time per layer from the shot start on (set-up is reported above).
  const auto self = [&](auto&& f) {
    return med([&](const Cycle& c) {
      return f(ComputeSelfTimes(c.spans, c.shot_start_ns));
    });
  };
  m.push_back({"self.simgpu_s", self([](const SelfTimes& st) {
                 return st.layer_s[static_cast<int>(Layer::kSimgpu)];
               }),
               "s"});
  m.push_back({"self.core_s", self([](const SelfTimes& st) {
                 return st.layer_s[static_cast<int>(Layer::kCore)];
               }),
               "s"});
  m.push_back({"self.storage_s", self([](const SelfTimes& st) {
                 return st.layer_s[static_cast<int>(Layer::kStorage)];
               }),
               "s"});
  m.push_back({"self.storage_on_app_s",
               self([](const SelfTimes& st) { return st.storage_on_app_s; }), "s"});

  // Tracing overhead: traced minus untraced cycles of this run.
  m.push_back({"overhead.shot_s", traced_e2e.shot_s - untraced_e2e.shot_s, "s"});
  m.push_back({"overhead.blocked_s",
               traced_e2e.blocked_s - untraced_e2e.blocked_s, "s"});
  m.push_back({"overhead.ckpt_MBps",
               traced_e2e.ckpt_MBps - untraced_e2e.ckpt_MBps, "MB/s"});
  m.push_back({"overhead.restore_MBps",
               traced_e2e.restore_MBps - untraced_e2e.restore_MBps, "MB/s"});
  m.push_back({"overhead.durable_s",
               traced_e2e.durable_s - untraced_e2e.durable_s, "s"});
  m.push_back({"overhead.setup_s", traced_e2e.setup_s - untraced_e2e.setup_s, "s"});
  return m;
}

// --- Command line ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && a.seconds > 0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> [--trace 0|1] [--out <dir>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int num_ranks = std::clamp(hw, 1, kMaxRanks);
  const auto inputs = MakeInputs(args.seed, num_ranks, kCkptsPerRank, w->order);

  // Cycles until the next would overrun --seconds; a traced run alternates
  // untraced and traced cycles and needs one of each.
  const util::Stopwatch run;
  std::vector<Cycle> cycles;
  double last_cycle_s = 0;
  while (true) {
    const bool traced = args.trace && cycles.size() % 2 == 1;
    const util::Stopwatch sw;
    cycles.push_back(RunCycle(*w, inputs, traced));
    last_cycle_s = sw.ElapsedSec();
    const Cycle& c = cycles.back();
    std::printf("# cycle %zu%s: setup %.3f s, shot %.3f s, durable %.3f s, "
                "failed %llu/%llu\n",
                cycles.size() - 1, traced ? " (traced)" : "", c.setup_s,
                c.shot_s, c.durable_s, static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.attempted));
    std::printf("#   per rank: ckpt MB/s");
    for (const RankTally& t : c.ranks) {
      std::printf(" %.1f", t.ckpt_s > 0 ? t.ckpt_bytes / t.ckpt_s / 1e6 : 0.0);
    }
    std::printf(" | restore MB/s");
    for (const RankTally& t : c.ranks) {
      std::printf(" %.1f", t.restore_s > 0 ? t.restore_bytes / t.restore_s / 1e6 : 0.0);
    }
    std::printf("\n");
    if (!c.first_error.empty()) {
      std::printf("# cycle %zu error: %s\n", cycles.size() - 1,
                  c.first_error.c_str());
    }
    const bool need_traced = args.trace && cycles.size() < 2;
    if (!need_traced && run.ElapsedSec() + last_cycle_s > args.seconds) break;
  }

  std::vector<double> setups;
  std::vector<const Cycle*> untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  for (const Cycle& c : cycles) {
    (c.traced ? traced : untraced).push_back(&c);
    if (!c.traced) setups.push_back(c.setup_s);
    attempted += c.attempted;
    failed += c.failed;
  }
  while (!args.trace && static_cast<int>(setups.size()) < kMinSetups) {
    const auto s = BuildStack(*w, num_ranks);
    if (s->engine == nullptr) {
      ++attempted;
      ++failed;
      break;
    }
    setups.push_back(s->setup_s);
  }

  const EndToEnd e = Summarize(untraced, setups);
  const double fail_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 1.0;
  std::printf("# %s seed=%llu ranks=%d cycles=%zu setups=%zu\n", w->name,
              static_cast<unsigned long long>(args.seed), num_ranks,
              cycles.size(), setups.size());
  std::printf("# setup_s %.4f s | shot_s %.4f s | blocked_s %.4f s | "
              "ckpt_MBps %.2f MB/s | restore_MBps %.2f MB/s | durable_s %.4f s "
              "| peak_rss_MiB %.1f MiB | op_fail_frac %.6f ratio\n",
              e.setup_s, e.shot_s, e.blocked_s, e.ckpt_MBps, e.restore_MBps,
              e.durable_s, PeakRssMiB(), fail_frac);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", e.setup_s, "s"},
               {"shot_s", e.shot_s, "s"},
               {"blocked_s", e.blocked_s, "s"},
               {"ckpt_MBps", e.ckpt_MBps, "MB/s"},
               {"restore_MBps", e.restore_MBps, "MB/s"},
               {"durable_s", e.durable_s, "s"},
               {"peak_rss_MiB", PeakRssMiB(), "MiB"},
               {"op_ok_frac", 1.0 - fail_frac, "ratio"}};
  } else {
    std::vector<double> traced_setups;
    for (const Cycle* c : traced) traced_setups.push_back(c->setup_s);
    const EndToEnd te = Summarize(traced, traced_setups);
    metrics = PerLayer(traced, te, e);
    for (const Metric& m : metrics) {
      if (m.name.rfind("self.", 0) == 0 || m.name.rfind("overhead.", 0) == 0) {
        std::printf("# %s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/spans-" + w->name + "-seed" +
                               std::to_string(args.seed) + ".json";
      std::ofstream f(path, std::ios::trunc);
      const Cycle& last = *traced.back();
      f << SpansToChromeJson(last.spans, static_cast<int>(&last - cycles.data()));
      if (!f) std::fprintf(stderr, "cannot write spans to '%s'\n", path.c_str());
    }
  }
  const bool correct = failed == 0;
  PrintJson(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
