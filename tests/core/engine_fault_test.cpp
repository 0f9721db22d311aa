// Engine behavior under injected storage-tier failures (DESIGN.md §8):
// transient faults are retried, permanent terminal-tier failures degrade
// durability to the deepest surviving tier (or surface errors in strict
// mode), and failed prefetch promotions fall back to deeper tiers instead
// of wedging Restore().
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "rtm/workload.hpp"  // FillPattern / CheckPattern helpers
#include "harness/experiment.hpp"
#include "storage/faulty_store.hpp"
#include "storage/mem_store.hpp"
#include "support/gated_store.hpp"

namespace ckpt::core {
namespace {

using rtm::CheckPattern;
using rtm::FillPattern;
using storage::FaultKind;
using storage::FaultOp;
using storage::FaultyStore;

class EngineFaultTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  void Build(EngineOptions opts, FaultyStore::Options fopts = {},
             int ranks = 1) {
    engine_.reset();  // must go before the cluster it references
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    mem_ = std::make_shared<storage::MemStore>();
    ssd_ = std::make_shared<FaultyStore>(mem_, fopts);
    pfs_ = std::make_shared<storage::MemStore>();
    engine_ = std::make_unique<Engine>(*cluster_, ssd_, pfs_, opts, ranks);
  }

  /// Build() with terminal_tier = kPfs behind a gated PFS store: the
  /// durable drain parks on the gate until the test opens it.
  void BuildGatedPfs(EngineOptions opts) {
    engine_.reset();
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    mem_ = std::make_shared<storage::MemStore>();
    ssd_ = std::make_shared<FaultyStore>(mem_, FaultyStore::Options{});
    pfs_ = std::make_shared<storage::MemStore>();
    gated_pfs_ = std::make_shared<test_support::GatedStore>(pfs_);
    opts.terminal_tier = Tier::kPfs;
    engine_ = std::make_unique<Engine>(*cluster_, ssd_, gated_pfs_, opts, 1);
  }

  void TearDown() override {
    if (gated_pfs_) gated_pfs_->Open();  // let a parked drain finish
  }

  /// Default small caches: GPU cache fits 4 checkpoints, host fits 16.
  EngineOptions SmallCaches() {
    EngineOptions opts;
    opts.gpu_cache_bytes = 4 * kCkptSize;
    opts.host_cache_bytes = 16 * kCkptSize;
    // Keep the retry schedules fast so failure tests stay sub-second.
    opts.flush_retry.initial_backoff = std::chrono::microseconds(50);
    opts.flush_retry.max_backoff = std::chrono::microseconds(200);
    opts.fetch_retry.initial_backoff = std::chrono::microseconds(50);
    opts.fetch_retry.max_backoff = std::chrono::microseconds(200);
    return opts;
  }

  sim::BytePtr DevAlloc(sim::Rank rank, std::uint64_t size) {
    auto p = cluster_->device(rank).Allocate(size);
    EXPECT_TRUE(p.ok()) << p.status();
    return *p;
  }

  void WriteCkpt(sim::Rank rank, Version v, std::uint64_t size = kCkptSize) {
    sim::BytePtr buf = DevAlloc(rank, size);
    FillPattern(rank, v, buf, size);
    ASSERT_TRUE(engine_->Checkpoint(rank, v, buf, size).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(buf).ok());
  }

  void RestoreAndVerify(sim::Rank rank, Version v,
                        std::uint64_t size = kCkptSize) {
    sim::BytePtr buf = DevAlloc(rank, size);
    auto st = engine_->Restore(rank, v, buf, size);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(CheckPattern(rank, v, buf, size))
        << "data corruption for version " << v;
    ASSERT_TRUE(cluster_->device(rank).Free(buf).ok());
  }

  /// Polls until `pred` holds or ~5 s pass.
  template <typename Pred>
  bool WaitFor(Pred pred) {
    for (int i = 0; i < 500; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<storage::MemStore> mem_;
  std::shared_ptr<FaultyStore> ssd_;
  std::shared_ptr<storage::MemStore> pfs_;
  std::shared_ptr<test_support::GatedStore> gated_pfs_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(EngineFaultTest, TransientSsdFaultsAreRetriedToSuccess) {
  Build(SmallCaches());
  ssd_->FailNext(FaultOp::kPut, FaultKind::kTransient, 2);
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(engine_->ResidentOn(0, 0, Tier::kSsd));
  EXPECT_TRUE(mem_->Exists({0, 0}));  // data really reached the backend
  const RankMetrics& m = engine_->metrics(0);
  EXPECT_GE(m.flush_retries, 2u);
  EXPECT_EQ(m.flush_failures, 0u);
  EXPECT_EQ(m.tier_degradations, 0u);
  auto tier = engine_->DurableTierOf(0, 0);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(*tier, Tier::kSsd);
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, PermanentSsdFailureDegradesToHostTier) {
  Build(SmallCaches());
  ssd_->SetDown(true);
  WriteCkpt(0, 0);
  // The flush pipeline exhausts its retries against the dead SSD, then
  // keeps the checkpoint durable at the host tier instead of wedging.
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_FALSE(engine_->ResidentOn(0, 0, Tier::kSsd));
  EXPECT_TRUE(engine_->ResidentOn(0, 0, Tier::kHost));
  auto tier = engine_->DurableTierOf(0, 0);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(*tier, Tier::kHost);
  const RankMetrics& m = engine_->metrics(0);
  EXPECT_GE(m.tier_degradations, 1u);
  EXPECT_GE(m.flush_failures, 1u);
  EXPECT_EQ(m.checkpoints_lost, 0u);
  // The full cycle still completes: the degraded copy serves the restore.
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, DegradedCopyIsPinnedAgainstEviction) {
  Build(SmallCaches());
  ssd_->SetDown(true);
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->ResidentOn(0, 0, Tier::kHost));
  // Revive the SSD and push enough checkpoints through to thrash both
  // caches. The degraded copy of v0 has no durable backing, so SafeBelow
  // must keep it resident while everything else cycles out.
  ssd_->SetDown(false);
  for (Version v = 1; v <= 18; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(engine_->ResidentOn(0, 0, Tier::kHost));
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, StrictModeMarksFlushFailedAndSurfacesErrors) {
  auto opts = SmallCaches();
  opts.degraded_durability = false;
  Build(opts);
  ssd_->SetDown(true);
  WriteCkpt(0, 0);
  // Strict mode drops the cached copies and reports the loss.
  const auto wf = engine_->WaitForFlushes(0);
  EXPECT_EQ(wf.code(), util::ErrorCode::kIoError) << wf;
  auto state = engine_->StateOf(0, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, CkptState::kFlushFailed);
  EXPECT_FALSE(engine_->ResidentOn(0, 0, Tier::kGpu));
  EXPECT_FALSE(engine_->ResidentOn(0, 0, Tier::kHost));
  EXPECT_EQ(engine_->CacheUsed(0, 0), 0u);  // cache space was reclaimed
  const RankMetrics& m = engine_->metrics(0);
  EXPECT_GE(m.checkpoints_lost, 1u);
  EXPECT_EQ(m.tier_degradations, 0u);
  // Restore of the lost checkpoint errors out instead of blocking.
  sim::BytePtr buf = DevAlloc(0, kCkptSize);
  EXPECT_EQ(engine_->Restore(0, 0, buf, kCkptSize).code(),
            util::ErrorCode::kIoError);
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  EXPECT_EQ(engine_->DurableTierOf(0, 0).status().code(),
            util::ErrorCode::kIoError);
  // Later checkpoints against a revived store proceed normally.
  ssd_->SetDown(false);
  WriteCkpt(0, 1);
  EXPECT_EQ(engine_->WaitForFlushes(0).code(), util::ErrorCode::kIoError)
      << "the recorded loss keeps being reported";
  RestoreAndVerify(0, 1);
}

TEST_F(EngineFaultTest, PrefetchPromotionFallsBackToPfsCopy) {
  auto opts = SmallCaches();
  opts.terminal_tier = Tier::kPfs;  // copies land on both SSD and PFS
  Build(opts);
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_TRUE(engine_->ResidentOn(0, 0, Tier::kPfs));
  // Push v0 out of both caches (4-slot GPU cache, 16-slot host cache).
  for (Version v = 1; v <= 20; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_FALSE(engine_->ResidentOn(0, 0, Tier::kGpu));
  ASSERT_FALSE(engine_->ResidentOn(0, 0, Tier::kHost));
  // Kill the SSD, then prefetch v0: the promotion must fall back to the
  // PFS copy rather than aborting or wedging the later restore.
  ssd_->SetDown(true);
  ASSERT_TRUE(engine_->PrefetchEnqueue(0, 0).ok());
  ASSERT_TRUE(engine_->PrefetchStart(0).ok());
  EXPECT_TRUE(WaitFor([&] { return engine_->ResidentOn(0, 0, Tier::kGpu); }))
      << "promotion did not complete from the fallback tier";
  const RankMetrics& m = engine_->metrics(0);
  EXPECT_GE(m.fetch_fallbacks, 1u);
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, RestoreFailsFastWhenOnlyDurableTierIsDead) {
  Build(SmallCaches());
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  // Evict v0 from both caches; the SSD then holds the only copy.
  for (Version v = 1; v <= 20; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  ASSERT_FALSE(engine_->ResidentOn(0, 0, Tier::kGpu));
  ASSERT_FALSE(engine_->ResidentOn(0, 0, Tier::kHost));
  ssd_->SetDown(true);
  sim::BytePtr buf = DevAlloc(0, kCkptSize);
  const auto st = engine_->Restore(0, 0, buf, kCkptSize);
  EXPECT_EQ(st.code(), util::ErrorCode::kIoError) << st;  // no hang, no abort
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  EXPECT_GE(engine_->metrics(0).fetch_retries, 0u);
  // The record is intact: reviving the store makes the restore work again.
  ssd_->SetDown(false);
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, WriteThroughSurfacesTotalStoreFailure) {
  Build(SmallCaches());
  ssd_->SetDown(true);
  // Oversize for both caches: the synchronous write-through path must
  // return the failure to the caller, who still owns the source buffer.
  const std::uint64_t big = 32 * kCkptSize;
  sim::BytePtr buf = DevAlloc(0, big);
  FillPattern(0, 0, buf, big);
  EXPECT_EQ(engine_->Checkpoint(0, 0, buf, big).code(),
            util::ErrorCode::kIoError);
  ASSERT_TRUE(cluster_->device(0).Free(buf).ok());
  // The failed version was cleaned up and can be rewritten after revival.
  ssd_->SetDown(false);
  WriteCkpt(0, 0, big);
  RestoreAndVerify(0, 0, big);
}

TEST_F(EngineFaultTest, ShotCompletesUnderTransientFaultRate) {
  harness::ExperimentConfig cfg;
  cfg.topology = sim::TopologyConfig::Testing();
  cfg.num_ranks = 2;
  cfg.shot.num_ckpts = 24;
  cfg.shot.trace.num_snapshots = 24;
  cfg.shot.verify = true;
  cfg.ssd_fault_rate = 0.05;  // transient: retries absorb these
  cfg.ssd_fault_seed = 7;
  auto result = harness::RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
}

// --- Durable drain (SSD landing, then SSD -> PFS in the background) ---

TEST_F(EngineFaultTest, DeadSsdStillReachesPfsFromTheCacheCopy) {
  auto opts = SmallCaches();
  opts.terminal_tier = Tier::kPfs;
  Build(opts);
  ssd_->SetDown(true);
  for (Version v = 0; v < 8; ++v) WriteCkpt(0, v);
  // The landing falls through the dead SSD to the PFS, which is the
  // terminal tier: the flush completes there, nothing is degraded.
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  for (Version v = 0; v < 8; ++v) {
    EXPECT_TRUE(pfs_->Exists({0, v})) << "version " << v;
    EXPECT_FALSE(engine_->ResidentOn(0, v, Tier::kSsd)) << "version " << v;
    auto tier = engine_->DurableTierOf(0, v);
    ASSERT_TRUE(tier.ok()) << tier.status();
    EXPECT_EQ(*tier, Tier::kPfs);
  }
  const RankMetrics m = engine_->metrics(0);
  EXPECT_EQ(m.tier_degradations, 0u);
  EXPECT_EQ(m.flush_failures, 8u);  // one dead-SSD put per checkpoint
  EXPECT_EQ(m.checkpoints_lost, 0u);
  for (Version v = 0; v < 8; ++v) RestoreAndVerify(0, v);
}

TEST_F(EngineFaultTest, TransientSsdReadFaultsInTheDrainAreRetried) {
  auto opts = SmallCaches();
  opts.terminal_tier = Tier::kPfs;
  Build(opts);
  // Nothing but the drain reads the SSD here: no prefetch, no restore.
  ssd_->FailNext(FaultOp::kGet, FaultKind::kTransient, 2);
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(pfs_->Exists({0, 0}));
  const RankMetrics m = engine_->metrics(0);
  EXPECT_EQ(m.fetch_retries, 2u);
  EXPECT_EQ(m.flush_failures, 0u);
  EXPECT_EQ(m.tier_degradations, 0u);
  auto tier = engine_->DurableTierOf(0, 0);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(*tier, Tier::kPfs);
  RestoreAndVerify(0, 0);
}

TEST_F(EngineFaultTest, UnreadableSsdCopyDegradesToSsdAfterCacheEviction) {
  auto opts = SmallCaches();
  opts.eviction = EvictionKind::kFifo;  // oldest copies leave first
  opts.lineage = true;
  BuildGatedPfs(opts);
  // v0's drain parks on the PFS gate; v1..v20 land on the SSD behind it
  // and churn both caches, which drop v1 (safe: it is on the SSD).
  for (Version v = 0; v <= 20; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(WaitFor([&] {
    return !engine_->ResidentOn(0, 1, Tier::kGpu) &&
           !engine_->ResidentOn(0, 1, Tier::kHost);
  })) << "v1 kept a cache copy";
  ASSERT_TRUE(mem_->Exists({0, 1}));
  ASSERT_TRUE(WaitFor([&] { return gated_pfs_->parked() == 1; }));
  // The drain's next SSD read (v1's; v0's already happened) fails on every
  // attempt of its fetch_retry budget: a permanent read failure.
  ssd_->FailNext(FaultOp::kGet, FaultKind::kTransient,
                 opts.fetch_retry.max_attempts);
  gated_pfs_->Open();
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());

  auto tier = engine_->DurableTierOf(0, 1);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(*tier, Tier::kSsd);
  for (Version v = 0; v <= 20; ++v) {
    EXPECT_EQ(pfs_->Exists({0, v}), v != 1) << "version " << v;
  }
  const RankMetrics m = engine_->metrics(0);
  EXPECT_EQ(m.tier_degradations, 1u);
  EXPECT_EQ(m.checkpoints_lost, 0u);
  const Engine::LineageSnapshot lin = engine_->Lineage(0);
  EXPECT_EQ(lin.degraded, 1u);
  EXPECT_EQ(lin.durable, 20u);
  EXPECT_EQ(lin.lost, 0u);
  RestoreAndVerify(0, 1);  // served by the SSD copy
}

TEST_F(EngineFaultTest, DrainSkipsConsumedDiscardableCheckpoints) {
  auto opts = SmallCaches();
  opts.discard_after_restore = true;
  opts.lineage = true;
  BuildGatedPfs(opts);
  for (Version v = 0; v < 3; ++v) WriteCkpt(0, v);
  // All three landed; v0's drain holds the gate, v1 and v2 queue behind it.
  ASSERT_TRUE(WaitFor([&] {
    return mem_->Exists({0, 0}) && mem_->Exists({0, 1}) &&
           mem_->Exists({0, 2});
  }));
  ASSERT_TRUE(WaitFor([&] { return gated_pfs_->parked() == 1; }));
  RestoreAndVerify(0, 1);  // condition (5): v1's pending flush may go
  gated_pfs_->Open();
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_TRUE(pfs_->Exists({0, 0}));
  EXPECT_FALSE(pfs_->Exists({0, 1}));
  EXPECT_TRUE(pfs_->Exists({0, 2}));
  const RankMetrics m = engine_->metrics(0);
  EXPECT_EQ(m.flushes_cancelled, 1u);
  const Engine::LineageSnapshot lin = engine_->Lineage(0);
  EXPECT_EQ(lin.admitted, 3u);
  EXPECT_EQ(lin.durable, 2u);
  EXPECT_EQ(lin.erased, 1u);
}

TEST_F(EngineFaultTest, ShutdownDrainsTheQueuedDeeperPuts) {
  auto opts = SmallCaches();
  opts.lineage = true;
  BuildGatedPfs(opts);
  for (Version v = 0; v < 4; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(WaitFor([&] {
    return engine_->metrics(0).flush_bytes_to_tier[2] == 4 * kCkptSize;
  }));
  // Shutdown with the drain queue non-empty: like the cache stages, the
  // drain disposes of every queued item before its thread exits.
  std::thread opener([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gated_pfs_->Open();
  });
  engine_->Shutdown();
  opener.join();
  for (Version v = 0; v < 4; ++v) {
    EXPECT_TRUE(pfs_->Exists({0, v})) << "version " << v;
  }
  const Engine::LineageSnapshot lin = engine_->Lineage(0);
  EXPECT_EQ(lin.admitted, 4u);
  EXPECT_EQ(lin.durable, 4u);
  EXPECT_EQ(lin.inflight(), 0u);
}

}  // namespace
}  // namespace ckpt::core
