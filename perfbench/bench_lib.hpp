// Building blocks of the repository benchmark (perfbench/driver.cpp), kept
// apart from the driver so the benchmark's own tests can reach them:
//   * seeded inputs: per-rank checkpoint sizes and restore orders;
//   * an in-memory span recorder that times calls into the simgpu, core and
//     storage layers from outside the engine;
//   * a timing decorator for durable stores, and a tier-store factory that
//     composes the same stores as the engine's own factories with those
//     decorators inserted (one above and one below any aggregation buffer).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/tier_stack.hpp"
#include "core/types.hpp"
#include "simgpu/topology.hpp"
#include "storage/object_store.hpp"

namespace perfbench {

using ckpt::core::Version;

// --- Seeded inputs ---------------------------------------------------------

enum class Order : std::uint8_t { kReverse, kIrregular };

struct RankInputs {
  std::vector<std::uint64_t> sizes;  ///< checkpoint size of each version
  std::vector<Version> order;        ///< restore order of the backward pass
};

/// Sizes come from rtm::TraceModel in variable mode (one trace shot per
/// rank) and irregular orders from rtm::MakeRestoreOrder; both are derived
/// from `seed` alone, so the same seed always yields the same inputs.
[[nodiscard]] std::vector<RankInputs> MakeInputs(std::uint64_t seed,
                                                 int num_ranks, int num_ckpts,
                                                 Order order);

// --- Spans -----------------------------------------------------------------

enum class Layer : std::uint8_t { kSimgpu, kCore, kStorage };
inline constexpr int kNumLayers = 3;

struct Span {
  const char* name = "";  ///< lives for the process, e.g. "core.restore"
  Layer layer = Layer::kCore;
  int rank = -1;          ///< shared id with `version`: the checkpoint
  std::int64_t version = -1;
  std::int64_t start_ns = 0;  ///< util::NowNs() clock
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;    ///< thread CPU time spent inside the span
  std::int32_t parent = -1;   ///< index into the same thread's spans
  std::uint32_t thread = 0;   ///< recorder-assigned thread number
};

/// Process-wide span recorder. Spans live in per-thread buffers and are only
/// read by Collect() once every recording thread has finished, so the
/// recording path takes no lock after a thread's first span.
class Tracer {
 public:
  static Tracer& Get();

  void Start();  ///< drops previous spans and enables recording
  void Stop();   ///< disables recording
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// All spans recorded since Start(); parent indices are rebased onto the
  /// returned vector. Call only after Stop() and after every thread that
  /// recorded has been joined.
  [[nodiscard]] std::vector<Span> Collect();

 private:
  friend class ScopedSpan;
  struct ThreadBuf {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices
  };
  /// This thread's buffer for the current recording, registering it first.
  ThreadBuf& Local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// Records one span around its scope when the tracer is enabled; otherwise
/// costs one relaxed load.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer, int rank, std::int64_t version);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::ThreadBuf* buf_ = nullptr;
  std::int32_t index_ = -1;
};

/// Self time per layer: each span's duration minus the time its direct
/// children cover, summed per layer over all threads (thread-seconds).
/// Children of one span run sequentially on its thread, so their durations
/// do not overlap. Spans that start before `since_ns` are left out.
struct SelfTimes {
  double layer_s[kNumLayers] = {0, 0, 0};
  double storage_on_app_s = 0;  ///< storage self time inside core calls
};
[[nodiscard]] SelfTimes ComputeSelfTimes(const std::vector<Span>& spans,
                                         std::int64_t since_ns = 0);

/// Chrome trace-event JSON ("X" events) of `spans`, loadable in Perfetto.
[[nodiscard]] std::string SpansToChromeJson(const std::vector<Span>& spans,
                                            int pid);

// --- Storage ---------------------------------------------------------------

/// Cumulative counters of one timed store boundary. Always on: the driver's
/// correctness gate and the durability stamp read them in untraced runs.
struct OpLedger {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> failed{0};
};

class StoreLedger {
 public:
  /// `label` names the boundary: "ssd", "remote", "remote.landed".
  explicit StoreLedger(const std::string& label);

  [[nodiscard]] const char* put_span() const noexcept { return put_span_; }
  [[nodiscard]] const char* get_span() const noexcept { return get_span_; }

  void RecordPut(const ckpt::storage::ObjectKey& key, std::int64_t end_ns);
  /// Keys of every successful put, in completion order.
  [[nodiscard]] std::vector<ckpt::storage::ObjectKey> put_keys() const;
  /// util::NowNs() at which the latest successful put returned (0 = none).
  [[nodiscard]] std::int64_t last_put_end_ns() const noexcept {
    return last_put_end_ns_.load(std::memory_order_acquire);
  }

  OpLedger put;
  OpLedger get;

 private:
  const char* put_span_;  // "storage.<label>.put", lives for the process
  const char* get_span_;
  std::atomic<std::int64_t> last_put_end_ns_{0};
  mutable std::mutex mu_;
  std::vector<ckpt::storage::ObjectKey> put_keys_;  // guarded by mu_
};

/// Transparent decorator: forwards every call, timing Put, Get and GetRange
/// into its ledger and, when tracing, as storage spans keyed by the object.
class TimedStore final : public ckpt::storage::ObjectStore {
 public:
  TimedStore(std::shared_ptr<ckpt::storage::ObjectStore> inner,
             std::shared_ptr<StoreLedger> ledger);

  ckpt::util::Status Put(const ckpt::storage::ObjectKey& key,
                         ckpt::sim::ConstBytePtr data,
                         std::uint64_t size) override;
  ckpt::util::Status Get(const ckpt::storage::ObjectKey& key,
                         ckpt::sim::BytePtr dst, std::uint64_t size) override;
  ckpt::util::Status GetRange(const ckpt::storage::ObjectKey& key,
                              std::uint64_t offset, ckpt::sim::BytePtr dst,
                              std::uint64_t len) override;
  [[nodiscard]] ckpt::util::StatusOr<std::uint64_t> Size(
      const ckpt::storage::ObjectKey& key) const override {
    return inner_->Size(key);
  }
  [[nodiscard]] bool Exists(const ckpt::storage::ObjectKey& key) const override {
    return inner_->Exists(key);
  }
  ckpt::util::Status Erase(const ckpt::storage::ObjectKey& key) override {
    return inner_->Erase(key);
  }
  [[nodiscard]] std::vector<ckpt::storage::ObjectKey> Keys() const override {
    return inner_->Keys();
  }
  [[nodiscard]] std::uint64_t TotalBytes() const override {
    return inner_->TotalBytes();
  }
  [[nodiscard]] bool CollectStats(ckpt::storage::StoreStats& out) const override {
    return inner_->CollectStats(out);
  }

 private:
  std::shared_ptr<ckpt::storage::ObjectStore> inner_;
  std::shared_ptr<StoreLedger> ledger_;
};

/// Ledgers the factory created, by label.
using LedgerMap = std::map<std::string, std::shared_ptr<StoreLedger>>;

/// Tier-store factory for core::ParseTierStack. "mem" durable tiers get the
/// stores storage::MakeSsdStore / MakePfsStore compose (NVMe model for the
/// first durable tier, PFS uplink beyond), with the limiter charge timed as a
/// simgpu span. "s3://" tiers get the stores storage::OpenRemoteBackend
/// composes; with aggregation on, one decorator sits above the
/// AggregatingStore ("<tier>", member puts) and one below it
/// ("<tier>.landed", group puts), otherwise one ("<tier>", which is then
/// also the landing boundary). `topo` and `ledgers` must outlive the stores.
[[nodiscard]] ckpt::core::TierStoreFactory MakeTimedStoreFactory(
    const ckpt::sim::Topology& topo, LedgerMap& ledgers);

// --- Statistics ------------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 100]) of `v`; 0 when empty.
[[nodiscard]] double Percentile(std::vector<double> v, double q);
[[nodiscard]] inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

}  // namespace perfbench
