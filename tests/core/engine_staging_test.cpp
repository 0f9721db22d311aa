// The per-rank pinned staging pool (paper idea 4, §4.1.4, on the staged
// paths): transfers that bounce through host memory without owning a cache
// slot — direct store restores, device-tier flushes and single-tier
// promotions without GPUDirect, and oversize write-through — borrow a
// buffer pinned once instead of registering one per transfer. Reuse is
// read through Engine::StagingPoolOf, not inferred from timing. The last
// test is a TSan storm over the pool and the rank lock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/tier_stack.hpp"
#include "rtm/workload.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;

class EngineStagingTest : public ::testing::Test {
 protected:
  void Build(const std::string& spec, std::uint64_t pinned_alloc_bw) {
    engine_.reset();  // must go before the cluster it references
    sim::TopologyConfig topo = sim::TopologyConfig::Testing();
    topo.pinned_alloc_bw = pinned_alloc_bw;
    cluster_ = std::make_unique<sim::Cluster>(topo);
    auto stack = ParseTierStack(spec, "", /*factory=*/{});
    ASSERT_TRUE(stack.ok()) << stack.status();
    engine_ = std::make_unique<Engine>(*cluster_, std::move(*stack),
                                       EngineOptions{}, 1);
  }

  void WriteCkpt(Version v, std::uint64_t size) {
    auto buf = cluster_->device(0).Allocate(size);
    ASSERT_TRUE(buf.ok()) << buf.status();
    FillPattern(0, v, *buf, size);
    ASSERT_TRUE(engine_->Checkpoint(0, v, *buf, size).ok());
    ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
  }

  void RestoreAndVerify(Version v, std::uint64_t size) {
    auto buf = cluster_->device(0).Allocate(size);
    ASSERT_TRUE(buf.ok()) << buf.status();
    const util::Status st = engine_->Restore(0, v, *buf, size);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(CheckPattern(0, v, *buf, size)) << "version " << v;
    ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
  }

  [[nodiscard]] std::uint64_t Registrations() const {
    return engine_->StagingPoolOf(0).registrations();
  }

  /// Versions in [0, n) that no cache tier holds. Which ones the caches
  /// evicted depends on flush timing, so tests pick them here instead of
  /// assuming the oldest are gone.
  [[nodiscard]] std::vector<Version> UncachedVersions(Version n) const {
    std::vector<Version> out;
    for (Version v = 0; v < n; ++v) {
      bool cached = false;
      for (int t = 0; t < engine_->tiers().num_cache_tiers(); ++t) {
        cached = cached || engine_->ResidentOnIndex(0, v, t);
      }
      if (!cached) out.push_back(v);
    }
    return out;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<Engine> engine_;
};

// Variable sizes within a factor of 2 (24-40 KiB): the first direct read
// registers, at most one later read grows the buffer, the rest reuse it.
std::uint64_t VariableSize(Version v) {
  return (24u << 10) + ((v * 5) % 17) * 1024u;
}

TEST_F(EngineStagingTest, StoreOnlyRestoresRegisterAtMostTwice) {
  // 1 MiB/s: one registration per restore would cost ~30 ms each.
  Build("gpu:gpucache:128Ki;host:cache:128Ki;ssd:durable", 1 << 20);
  constexpr Version kWritten = 20;
  constexpr std::size_t kRestored = 6;
  for (Version v = 0; v < kWritten; ++v) WriteCkpt(v, VariableSize(v));
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  std::vector<Version> uncached = UncachedVersions(kWritten);
  ASSERT_GE(uncached.size(), kRestored);
  uncached.resize(kRestored);
  for (Version v : uncached) RestoreAndVerify(v, VariableSize(v));
  EXPECT_EQ(engine_->metrics(0).restores_from_store, kRestored);
  EXPECT_GE(Registrations(), 1u);
  EXPECT_LE(Registrations(), 2u);
}

TEST_F(EngineStagingTest, GpuOnlyFlushesAndPromotionsReuseThePool) {
  // No pinned cache tier: every flush stages device -> pinned -> store, and
  // every promotion store -> pinned -> device.
  constexpr std::uint64_t kSize = 32 << 10;
  Build("gpu:gpucache:128Ki;ssd:durable", 1 << 20);
  constexpr Version kWritten = 12;
  for (Version v = 0; v < kWritten; ++v) WriteCkpt(v, kSize);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_EQ(engine_->metrics(0).flushes_completed, kWritten);
  // The flush stage is the only borrower so far: one buffer, pinned once.
  EXPECT_EQ(Registrations(), 1u);

  // Hint three evicted versions (the pin cap admits three 32 KiB
  // promotions into 128 KiB) so T_PF promotes them back.
  std::vector<Version> uncached = UncachedVersions(kWritten);
  ASSERT_GE(uncached.size(), 3u);
  uncached.resize(3);
  for (Version v : uncached) ASSERT_TRUE(engine_->PrefetchEnqueue(0, v).ok());
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine_->metrics(0).prefetch_promotions < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (Version v : uncached) RestoreAndVerify(v, kSize);
  const RankMetrics m = engine_->metrics(0);
  EXPECT_EQ(m.prefetch_promotions, 3u);
  // The prefetcher and a racing direct restore may each hold a buffer.
  EXPECT_LE(Registrations(), 2u);
}

TEST_F(EngineStagingTest, OversizeWriteThroughReusesThePool) {
  constexpr std::uint64_t kSize = 128 << 10;  // larger than every cache tier
  Build("gpu:gpucache:64Ki;host:cache:64Ki;ssd:durable", 1 << 20);
  constexpr Version kWritten = 4;
  for (Version v = 0; v < kWritten; ++v) WriteCkpt(v, kSize);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_EQ(Registrations(), 1u);
  EXPECT_EQ(engine_->StagingPoolOf(0).registered_bytes(), kSize);
  // The direct restores borrow the same buffer.
  for (Version v = 0; v < kWritten; ++v) RestoreAndVerify(v, kSize);
  EXPECT_EQ(engine_->metrics(0).restores_from_store, kWritten);
  EXPECT_EQ(Registrations(), 1u);
}

TEST_F(EngineStagingTest, TwoThreadsRestoreFromTheStoreWhileTheGpuFlushStageRuns) {
  constexpr std::uint64_t kSize = 32 << 10;
  Build("gpu:gpucache:128Ki;ssd:durable", 64 << 20);
  constexpr Version kOld = 64;
  constexpr Version kNew = 64;  // written during the storm
  for (Version v = 0; v < kOld; ++v) WriteCkpt(v, kSize);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // Nothing promotes during the storm, so these stay store-only.
  const std::vector<Version> uncached = UncachedVersions(kOld);
  ASSERT_GE(uncached.size(), 56u);

  std::atomic<int> failures{0};
  std::atomic<int> corrupted{0};
  std::vector<std::thread> threads;
  // Writer: keeps the GPU tier's flush stage staging through the pool.
  threads.emplace_back([&] {
    auto buf = cluster_->device(0).Allocate(kSize);
    if (!buf.ok()) {
      failures.fetch_add(1);
      return;
    }
    for (Version v = kOld; v < kOld + kNew; ++v) {
      FillPattern(0, v, *buf, kSize);
      if (!engine_->Checkpoint(0, v, *buf, kSize).ok()) failures.fetch_add(1);
    }
    (void)cluster_->device(0).Free(*buf);
  });
  // Two readers on the same rank, disjoint versions, each its own buffer.
  for (std::size_t first : {0u, 1u}) {
    threads.emplace_back([&, first] {
      auto buf = cluster_->device(0).Allocate(kSize);
      if (!buf.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (std::size_t i = first; i < uncached.size(); i += 2) {
        const Version v = uncached[i];
        if (!engine_->Restore(0, v, *buf, kSize).ok()) {
          failures.fetch_add(1);
        } else if (!CheckPattern(0, v, *buf, kSize)) {
          corrupted.fetch_add(1);
        }
      }
      (void)cluster_->device(0).Free(*buf);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(corrupted.load(), 0);
  const RankMetrics m = engine_->metrics(0);
  EXPECT_EQ(m.restores_from_store, uncached.size());
  EXPECT_EQ(m.flushes_completed, kOld + kNew);
  // At most one buffer per concurrent borrower: the flush stage and the
  // two readers.
  EXPECT_GE(Registrations(), 1u);
  EXPECT_LE(Registrations(), 3u);
  RestoreAndVerify(kOld + kNew - 1, kSize);
}

}  // namespace
}  // namespace ckpt::core
