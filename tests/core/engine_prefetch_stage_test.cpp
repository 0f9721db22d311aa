// Pipelined multi-level prefetch: one promotion stage per cache tier. The
// tier-0 stage (T_PF) pops the restore-order hints and pins what it
// promotes under prefetch_pin_fraction; each deeper cache tier's stage reads
// ahead of it, staging clean copies of hinted versions from the stores into
// space that holds no hinted copy. Store reads are counted (and held) at a
// GatedStore in front of the SSD tier, so "read once" and "read ahead of
// the GPU window" are checked from the store's side, not from timing.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/tier_stack.hpp"
#include "rtm/workload.hpp"
#include "storage/mem_store.hpp"
#include "support/gated_store.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;
using test_support::GatedStore;

constexpr std::uint64_t kSize = 32 << 10;
// 128 KiB GPU cache: the 75 % pin cap admits exactly three promotions.
constexpr const char* kTwoTier = "gpu:gpucache:128Ki;host:cache:512Ki;ssd:durable";
constexpr auto kDeadline = std::chrono::seconds(10);

/// Polls `done` until it holds or the deadline passes.
bool Eventually(const std::function<bool()>& done) {
  const auto end = std::chrono::steady_clock::now() + kDeadline;
  while (!done()) {
    if (std::chrono::steady_clock::now() > end) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class PrefetchStageTest : public ::testing::Test {
 protected:
  void Build(const std::string& spec) {
    engine_.reset();  // must go before the cluster it references
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    ssd_ = std::make_shared<GatedStore>(std::make_shared<storage::MemStore>(),
                                        /*open=*/true);
    const TierStoreFactory factory =
        [this](const std::string&, const std::string&, int)
        -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
      return std::shared_ptr<storage::ObjectStore>(ssd_);
    };
    auto stack = ParseTierStack(spec, "", factory);
    ASSERT_TRUE(stack.ok()) << stack.status();
    engine_ = std::make_unique<Engine>(*cluster_, std::move(*stack),
                                       EngineOptions{}, 1);
  }

  void TearDown() override {
    if (ssd_) ssd_->ReleaseGets();  // never leave a stage parked at the gate
    engine_.reset();
  }

  void WriteAll(Version n) {
    auto buf = cluster_->device(0).Allocate(kSize);
    ASSERT_TRUE(buf.ok()) << buf.status();
    for (Version v = 0; v < n; ++v) {
      FillPattern(0, v, *buf, kSize);
      ASSERT_TRUE(engine_->Checkpoint(0, v, *buf, kSize).ok());
    }
    ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
    ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  }

  void RestoreAndVerify(Version v) {
    auto buf = cluster_->device(0).Allocate(kSize);
    ASSERT_TRUE(buf.ok()) << buf.status();
    const util::Status st = engine_->Restore(0, v, *buf, kSize);
    ASSERT_TRUE(st.ok()) << "version " << v << ": " << st;
    EXPECT_TRUE(CheckPattern(0, v, *buf, kSize)) << "version " << v;
    ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
  }

  [[nodiscard]] bool Cached(Version v) const {
    for (int t = 0; t < engine_->tiers().num_cache_tiers(); ++t) {
      if (engine_->ResidentOnIndex(0, v, t)) return true;
    }
    return false;
  }

  /// Hints three cached versions (they fill the pin cap, so T_PF stops
  /// there) followed by `n_ahead` versions no cache tier holds, and starts
  /// the prefetcher. Returns the versions hinted past the GPU window.
  std::vector<Version> HintBeyondPinCap(Version written, std::size_t n_ahead) {
    std::vector<Version> cached;
    std::vector<Version> uncached;
    for (Version v = 0; v < written; ++v) {
      (Cached(v) ? cached : uncached).push_back(v);
    }
    EXPECT_GE(cached.size(), 3u);
    EXPECT_GE(uncached.size(), n_ahead);
    if (cached.size() < 3 || uncached.size() < n_ahead) return {};
    cached.resize(3);
    uncached.resize(n_ahead);
    for (Version v : cached) EXPECT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
    for (Version v : uncached) EXPECT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
    EXPECT_TRUE(engine_->PrefetchStart(0).ok());
    EXPECT_TRUE(Eventually([&] { return engine_->PrefetchDistance(0) == 3; }));
    pinned_ = cached;
    return uncached;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<GatedStore> ssd_;
  std::unique_ptr<Engine> engine_;
  std::vector<Version> pinned_;  ///< the hinted versions T_PF pinned
};

TEST_F(PrefetchStageTest, HostStagesHintedVersionsBeyondTheGpuWindow) {
  Build(kTwoTier);
  constexpr Version kWritten = 24;  // the 512 KiB host tier holds 16
  WriteAll(kWritten);
  const std::uint64_t gets_before = ssd_->gets();
  const std::vector<Version> ahead = HintBeyondPinCap(kWritten, 2);
  ASSERT_EQ(ahead.size(), 2u);
  // T_PF is parked on the pin cap, yet the host stage reads both versions
  // behind it into the host tier, each once, without claiming them.
  ASSERT_TRUE(Eventually([&] {
    return engine_->ResidentOnIndex(0, ahead[0], 1) &&
           engine_->ResidentOnIndex(0, ahead[1], 1);
  }));
  EXPECT_EQ(ssd_->gets() - gets_before, 2u);
  EXPECT_EQ(engine_->PrefetchDistance(0), 3u);
  for (Version v : ahead) {
    auto state = engine_->StateOf(0, v);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, CkptState::kFlushed);
    EXPECT_FALSE(engine_->ResidentOnIndex(0, v, 0));
  }
  for (Version v : pinned_) RestoreAndVerify(v);
  for (Version v : ahead) RestoreAndVerify(v);
  EXPECT_EQ(ssd_->gets() - gets_before, 2u);
  EXPECT_EQ(engine_->metrics(0).restores_from_store, 0u);
}

TEST_F(PrefetchStageTest, ReverseShotReadsEachUncachedVersionOnce) {
  Build(kTwoTier);
  constexpr Version kWritten = 48;
  WriteAll(kWritten);
  // Restore order: newest first, the cached versions ahead of the rest
  // (which ones the caches kept depends on flush timing).
  std::vector<Version> order;
  std::vector<Version> uncached;
  for (Version v = kWritten; v-- > 0;) {
    (Cached(v) ? order : uncached).push_back(v);
  }
  const std::size_t n_cached = order.size();
  ASSERT_GE(n_cached, 8u);
  order.insert(order.end(), uncached.begin(), uncached.end());
  const std::uint64_t gets_before = ssd_->gets();
  for (Version v : order) ASSERT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());

  // Consume two versions and pause. T_PF is three promotions ahead of the
  // application, all of cached versions, so it reads nothing; the host
  // stage reuses the consumed host copies to read the uncached ones now.
  RestoreAndVerify(order[0]);
  RestoreAndVerify(order[1]);
  EXPECT_TRUE(Eventually([&] { return ssd_->gets() > gets_before; }));
  for (std::size_t i = 2; i < order.size(); ++i) RestoreAndVerify(order[i]);
  for (Version v : uncached) {
    EXPECT_EQ(ssd_->gets_of({0, v}), 1u) << "version " << v;
  }
  // T_PF's own GPU evictions may drop a last cached copy; even then a
  // version is read at most once.
  for (Version v = 0; v < kWritten; ++v) {
    EXPECT_LE(ssd_->gets_of({0, v}), 1u) << "version " << v;
  }
}

TEST_F(PrefetchStageTest, RestoreWaitsForAParkedStagingRead) {
  Build(kTwoTier);
  constexpr Version kWritten = 24;
  WriteAll(kWritten);
  ssd_->HoldGets();
  const std::uint64_t gets_before = ssd_->gets();
  const std::vector<Version> ahead = HintBeyondPinCap(kWritten, 1);
  ASSERT_EQ(ahead.size(), 1u);
  const Version v = ahead[0];
  ASSERT_TRUE(Eventually([&] { return ssd_->gets_parked() == 1; }));

  // The application deviates to v while the host stage's read of it is
  // parked: Restore waits for that read instead of issuing its own.
  auto restore = std::async(std::launch::async, [&] { RestoreAndVerify(v); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(restore.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(ssd_->gets() - gets_before, 1u);
  ssd_->ReleaseGets();
  restore.get();
  EXPECT_EQ(ssd_->gets() - gets_before, 1u);
  const RankMetrics m = engine_->metrics(0);
  EXPECT_EQ(m.restores_from_store, 0u);
  EXPECT_EQ(m.restores_from_host, 1u);
  EXPECT_EQ(m.restores_waited_promotion, 1u);
}

TEST_F(PrefetchStageTest, ShutdownDisposesOfAStagingReadInFlight) {
  Build(kTwoTier);
  constexpr Version kWritten = 24;
  WriteAll(kWritten);
  ssd_->HoldGets();
  const std::vector<Version> ahead = HintBeyondPinCap(kWritten, 1);
  ASSERT_EQ(ahead.size(), 1u);
  ASSERT_TRUE(Eventually([&] { return ssd_->gets_parked() == 1; }));

  // Shutdown waits for the read in flight, which then lands or is dropped
  // with its reservation: nothing stays half-filled.
  auto shutdown = std::async(std::launch::async, [&] { engine_->Shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ssd_->ReleaseGets();
  ASSERT_EQ(shutdown.wait_for(kDeadline), std::future_status::ready);
  std::uint64_t resident = 0;
  for (Version v = 0; v < kWritten; ++v) {
    if (engine_->ResidentOnIndex(0, v, 1)) resident += kSize;
    auto state = engine_->StateOf(0, v);
    ASSERT_TRUE(state.ok());
    EXPECT_NE(*state, CkptState::kReadInProgress) << "version " << v;
  }
  EXPECT_EQ(engine_->CacheUsed(0, 1), resident);
}

TEST_F(PrefetchStageTest, TwoHostCacheTiersRestoreByteExact) {
  Build("gpu:gpucache:128Ki;host:cache:256Ki;host2:cache:512Ki;ssd:durable");
  constexpr Version kWritten = 40;  // the cache tiers hold 28 between them
  WriteAll(kWritten);
  const std::uint64_t gets_before = ssd_->gets();
  const std::vector<Version> ahead = HintBeyondPinCap(kWritten, 3);
  ASSERT_EQ(ahead.size(), 3u);
  // Both deeper stages work behind the parked T_PF; the versions it will
  // promote next end up on the host tier, each read from the store once.
  ASSERT_TRUE(Eventually([&] {
    for (Version v : ahead) {
      if (!engine_->ResidentOnIndex(0, v, 1)) return false;
    }
    return true;
  }));
  EXPECT_EQ(ssd_->gets() - gets_before, 3u);
  for (Version v : pinned_) RestoreAndVerify(v);
  for (Version v : ahead) RestoreAndVerify(v);
  // The rest, deviating from the hints: direct reads from every tier.
  for (Version v = 0; v < kWritten; ++v) {
    auto state = engine_->StateOf(0, v);
    ASSERT_TRUE(state.ok());
    if (*state != CkptState::kConsumed) RestoreAndVerify(v);
  }
  const RankMetrics m = engine_->metrics(0);
  EXPECT_EQ(m.restores_from_gpu + m.restores_from_host + m.restores_from_store,
            kWritten);
}

}  // namespace
}  // namespace ckpt::core
