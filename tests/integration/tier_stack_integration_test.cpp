// End-to-end coverage of config-driven N-tier stacks: a host-only 3-tier
// stack and a 5-tier stack with a second durable stage must complete full
// RTM shots with verified data through the same harness the benches use,
// and a permanent failure of the deepest durable tier must degrade
// durability to the next surviving durable tier instead of losing data.
// A stalled terminal tier behind a faster durable one must not throttle
// Checkpoint(): the durable drain writes it from the landed copy.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string_view>
#include <thread>

#include "core/engine.hpp"
#include "core/tier_stack.hpp"
#include "core/trace_sink.hpp"
#include "harness/experiment.hpp"
#include "rtm/workload.hpp"
#include "storage/faulty_store.hpp"
#include "storage/mem_store.hpp"
#include "support/gated_store.hpp"
#include "util/trace.hpp"

namespace ckpt::harness {
namespace {

sim::TopologyConfig FastTopo() {
  sim::TopologyConfig topo = sim::TopologyConfig::Scaled();
  topo.gpus_per_node = 4;
  topo.hbm_capacity = 16 << 20;
  topo.d2d_bw = 0;
  topo.pcie_link_bw = 800 << 20;
  topo.host_mem_bw = 0;
  topo.nvme_drive_bw = 400 << 20;
  topo.pfs_bw = 200 << 20;
  topo.device_alloc_bw = 0;
  topo.pinned_alloc_bw = 0;
  topo.copy_latency_ns = 0;
  return topo;
}

ExperimentConfig BaseConfig() {
  ExperimentConfig cfg;
  cfg.topology = FastTopo();
  cfg.num_ranks = 4;
  cfg.shot.num_ckpts = 16;
  cfg.shot.compute_interval = std::chrono::microseconds(100);
  cfg.shot.verify = true;
  cfg.shot.read_order = rtm::ReadOrder::kReverse;
  cfg.shot.hint_mode = rtm::HintMode::kAll;
  cfg.shot.trace.num_snapshots = 16;
  cfg.shot.trace.uniform_size = 48 << 10;
  cfg.shot.trace.min_size = 8 << 10;
  cfg.shot.trace.max_size = 96 << 10;
  cfg.shot.trace.plateau_mean = 56 << 10;
  cfg.shot.trace.ramp_start_mean = 12 << 10;
  return cfg;
}

TEST(TierStackIntegration, HostOnlyThreeTierStackRoundTrips) {
  ExperimentConfig cfg = BaseConfig();
  // No device cache at all: checkpoints land in the pinned host tier and
  // promotions are host-to-host — the engine must not assume a GPU tier.
  cfg.tiers = "host:cache:1Mi,ssd:durable,pfs:durable";
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.bytes_restored,
            result->shot.merged.bytes_checkpointed);
  EXPECT_GT(result->restore_MBps_mean, 0.0);
  // A stack without a device tier cannot serve device-cache restores.
  EXPECT_EQ(result->shot.merged.restores_from_gpu, 0u);
}

TEST(TierStackIntegration, FiveTierStackWithSecondDurableStageRoundTrips) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers =
      "gpu:gpucache:256Ki,host:cache:1Mi,ssd:durable,pfs:durable,"
      "archive:durable";
  cfg.terminal_tier_name = "pfs";
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.bytes_restored,
            result->shot.merged.bytes_checkpointed);
  EXPECT_EQ(result->shot.merged.tier_degradations, 0u);
}

TEST(TierStackIntegration, IrregularReadsOnDeepStack) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers =
      "gpu:gpucache:256Ki,host:cache:1Mi,ssd:durable,pfs:durable,"
      "archive:durable";
  cfg.terminal_tier_name = "archive";
  cfg.shot.read_order = rtm::ReadOrder::kIrregular;
  cfg.shot.size_mode = rtm::SizeMode::kVariable;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
}

TEST(TierStackIntegration, DeadTerminalTierDegradesButShotCompletes) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers = "gpu:gpucache:256Ki,host:cache:1Mi,ssd:durable,pfs:durable";
  cfg.terminal_tier_name = "pfs";
  // The deepest durable tier is dead from the start: every flush exhausts
  // its retries there, degrades durability to the SSD tier, and the shot
  // must still round-trip every checkpoint.
  cfg.tier_store_factory =
      [](const std::string&, const std::string&,
         int ordinal) -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    auto mem = std::make_shared<storage::MemStore>();
    if (ordinal != 1) return std::shared_ptr<storage::ObjectStore>(mem);
    auto faulty = std::make_shared<storage::FaultyStore>(
        mem, storage::FaultyStore::Options{});
    faulty->SetDown(true);
    return std::shared_ptr<storage::ObjectStore>(faulty);
  };
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.bytes_restored,
            result->shot.merged.bytes_checkpointed);
  EXPECT_GT(result->shot.merged.tier_degradations, 0u);
  EXPECT_EQ(result->shot.merged.checkpoints_lost, 0u);
}

TEST(TierStackIntegration, MixedPolicyStackRoundTripsWithPerTierEvictions) {
  // The tentpole scenario: a score-driven GPU tier over a FIFO host tier,
  // undersized so both evict, run end-to-end through the RTM harness. Both
  // cache tiers must report evictions, durable tiers must report none, and
  // the shot must still verify every byte.
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers =
      "gpu:gpucache:256Ki:score,host:cache:512Ki:fifo,ssd:durable,pfs:durable";
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  EXPECT_EQ(result->shot.merged.bytes_restored,
            result->shot.merged.bytes_checkpointed);
  const core::RankMetrics& m = result->shot.merged;
  ASSERT_EQ(m.evictions_from_tier.size(), 4u);
  ASSERT_EQ(m.evicted_bytes_from_tier.size(), 4u);
  // 16 ckpts x 48Ki per rank vs 256Ki GPU / 512Ki host: both tiers evict.
  EXPECT_GT(m.evictions_from_tier[0], 0u);
  EXPECT_GT(m.evictions_from_tier[1], 0u);
  EXPECT_GT(m.evicted_bytes_from_tier[0], 0u);
  EXPECT_GT(m.evicted_bytes_from_tier[1], 0u);
  EXPECT_EQ(m.evictions_from_tier[2], 0u);  // durable tiers never evict
  EXPECT_EQ(m.evictions_from_tier[3], 0u);
}

TEST(TierStackIntegration, UnknownPolicyNameFailsInitWithInvalidArgument) {
  ExperimentConfig cfg = BaseConfig();
  cfg.tiers = "gpu:gpucache:256Ki:belady,host:cache:1Mi,ssd:durable";
  auto result = RunExperiment(cfg);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("unknown eviction policy"),
            std::string::npos)
      << result.status();
}

// --- Direct engine coverage on custom stacks ------------------------------

class TierStackEngineTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;

  void Build(core::TierStack stack, core::EngineOptions opts = {},
             int ranks = 1) {
    engine_.reset();  // must go before the cluster it references
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    opts.flush_retry.initial_backoff = std::chrono::microseconds(50);
    opts.flush_retry.max_backoff = std::chrono::microseconds(200);
    opts.fetch_retry.initial_backoff = std::chrono::microseconds(50);
    opts.fetch_retry.max_backoff = std::chrono::microseconds(200);
    engine_ = std::make_unique<core::Engine>(*cluster_, std::move(stack), opts,
                                             ranks);
  }

  void WriteCkpt(sim::Rank rank, core::Version v,
                 std::uint64_t size = kCkptSize) {
    auto buf = cluster_->device(rank).Allocate(size);
    ASSERT_TRUE(buf.ok()) << buf.status();
    rtm::FillPattern(rank, v, *buf, size);
    ASSERT_TRUE(engine_->Checkpoint(rank, v, *buf, size).ok());
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  void RestoreAndVerify(sim::Rank rank, core::Version v,
                        std::uint64_t size = kCkptSize) {
    auto buf = cluster_->device(rank).Allocate(size);
    ASSERT_TRUE(buf.ok()) << buf.status();
    auto st = engine_->Restore(rank, v, *buf, size);
    ASSERT_TRUE(st.ok()) << st;
    EXPECT_TRUE(rtm::CheckPattern(rank, v, *buf, size))
        << "data corruption for version " << v;
    ASSERT_TRUE(cluster_->device(rank).Free(*buf).ok());
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::unique_ptr<core::Engine> engine_;
};

TEST_F(TierStackEngineTest, HostOnlyStackCheckpointsAndRestores) {
  auto stack = core::ParseTierStack("host:cache:512Ki,ssd:durable", "",
                                    /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  Build(std::move(*stack));
  for (core::Version v = 0; v < 4; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  EXPECT_FALSE(engine_->tiers().is_device(0));  // no device tier exists
  EXPECT_GT(engine_->CacheUsed(0, 0), 0u);
  for (core::Version v = 0; v < 4; ++v) {
    EXPECT_TRUE(engine_->ResidentOnIndex(0, v, 1));  // durable on "ssd"
    RestoreAndVerify(0, v);
  }
}

TEST_F(TierStackEngineTest, DeepestDurableFailureDegradesToNextDurable) {
  // 5-tier stack whose terminal "archive" tier is permanently down: flushes
  // must settle on the deepest *surviving* durable tier ("pfs"), generically
  // — not on a hard-coded host/SSD pair.
  auto archive_mem = std::make_shared<storage::MemStore>();
  auto archive = std::make_shared<storage::FaultyStore>(
      archive_mem, storage::FaultyStore::Options{});
  archive->SetDown(true);
  std::vector<core::TierDesc> tiers;
  tiers.push_back({"gpu", core::TierKind::kCache, core::CacheMedium::kDevice,
                   4 * kCkptSize, nullptr});
  tiers.push_back({"host", core::TierKind::kCache,
                   core::CacheMedium::kPinnedHost, 16 * kCkptSize, nullptr});
  tiers.push_back({"ssd", core::TierKind::kDurable,
                   core::CacheMedium::kPinnedHost, 0,
                   std::make_shared<storage::MemStore>()});
  tiers.push_back({"pfs", core::TierKind::kDurable,
                   core::CacheMedium::kPinnedHost, 0,
                   std::make_shared<storage::MemStore>()});
  tiers.push_back({"archive", core::TierKind::kDurable,
                   core::CacheMedium::kPinnedHost, 0, archive});
  auto stack = core::TierStack::Create(std::move(tiers), "archive");
  ASSERT_TRUE(stack.ok()) << stack.status();
  Build(std::move(*stack));

  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());  // degraded, not failed
  auto tier = engine_->DurableTierIndexOf(0, 0);
  ASSERT_TRUE(tier.ok()) << tier.status();
  EXPECT_EQ(*tier, engine_->tiers().IndexOf("pfs"));
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, 2));   // ssd copy
  EXPECT_TRUE(engine_->ResidentOnIndex(0, 0, 3));   // pfs copy
  EXPECT_FALSE(engine_->ResidentOnIndex(0, 0, 4));  // archive never reached
  const core::RankMetrics& m = engine_->metrics(0);
  EXPECT_GT(m.tier_degradations, 0u);
  EXPECT_EQ(m.checkpoints_lost, 0u);
  RestoreAndVerify(0, 0);
}

TEST_F(TierStackEngineTest, InitResolvesPerTierPoliciesAgainstTheGlobalKnob) {
  // gpu names "score" explicitly, host stays silent: after Init the silent
  // tier must have inherited the engine-wide default (lru here), and the
  // stack summary must show the concrete per-tier mix.
  auto stack = core::ParseTierStack(
      "gpu:gpucache:256Ki:score,host:cache:1Mi,ssd:durable", "",
      /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  core::EngineOptions opts;
  opts.eviction = core::EvictionKind::kLru;
  Build(std::move(*stack), opts);
  EXPECT_EQ(engine_->tiers().policy(0), core::EvictionKind::kScore);
  EXPECT_EQ(engine_->tiers().policy(1), core::EvictionKind::kLru);
  EXPECT_EQ(engine_->tiers().ToString(),
            "gpu(256Ki,score)>host(1Mi,lru)>ssd*");
  WriteCkpt(0, 0);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  RestoreAndVerify(0, 0);
}

TEST_F(TierStackEngineTest, PerTierMetricsTrackTheConfiguredStack) {
  auto stack = core::ParseTierStack(
      "gpu:gpucache:256Ki,host:cache:1Mi,ssd:durable,pfs:durable", "pfs",
      /*factory=*/{});
  ASSERT_TRUE(stack.ok()) << stack.status();
  Build(std::move(*stack));
  for (core::Version v = 0; v < 3; ++v) WriteCkpt(0, v);
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  const core::RankMetrics m = engine_->metrics(0);
  ASSERT_EQ(m.flush_bytes_to_tier.size(), 4u);
  ASSERT_EQ(m.restores_from_tier.size(), 4u);
  // Every checkpoint reached both durable tiers (terminal = pfs).
  EXPECT_EQ(m.flush_bytes_to_tier[2], 3 * kCkptSize);
  EXPECT_EQ(m.flush_bytes_to_tier[3], 3 * kCkptSize);
  RestoreAndVerify(0, 0);
  // metrics() returns a snapshot, so re-read after the restore.
  const core::RankMetrics after = engine_->metrics(0);
  std::uint64_t served = 0;
  for (std::uint64_t n : after.restores_from_tier) served += n;
  EXPECT_EQ(served, 1u);
}

// 1-rank gpu(4 slots) > host(16 slots) > ssd > term stack whose terminal
// store is gated shut: the SSD counts its reads, the gate holds every
// terminal put until the test opens it.
class DurableDrainTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kCkptSize = 64 << 10;
  static constexpr core::Version kCkpts = 48;

  void Build(bool lineage) {
    cluster_ = std::make_unique<sim::Cluster>(sim::TopologyConfig::Testing());
    ssd_ = std::make_shared<test_support::GatedStore>(
        std::make_shared<storage::MemStore>(), /*open=*/true);
    term_ = std::make_shared<test_support::GatedStore>(
        std::make_shared<storage::MemStore>());
    auto stack = core::ParseTierStack(
        "gpu:gpucache:256Ki,host:cache:1Mi,ssd:durable,term:durable", "term",
        [this](const std::string&, const std::string&, int ordinal)
            -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
          if (ordinal == 0) return std::shared_ptr<storage::ObjectStore>(ssd_);
          return std::shared_ptr<storage::ObjectStore>(term_);
        });
    ASSERT_TRUE(stack.ok()) << stack.status();
    core::EngineOptions opts;
    opts.lineage = lineage;
    engine_ = std::make_unique<core::Engine>(*cluster_, std::move(*stack),
                                             opts, /*num_ranks=*/1);
  }

  void TearDown() override {
    if (term_) term_->Open();  // never leave a worker parked on the gate
    if (writer_.valid()) writer_.wait();
    engine_.reset();
    util::trace::Disable();
    util::trace::ResetBuffers();
  }

  /// Runs the kCkpts checkpoints on another thread; true when they all
  /// returned within `bound` (the gate is still shut at that point).
  bool CheckpointAllWithin(std::chrono::seconds bound) {
    writer_ = std::async(std::launch::async, [this] {
      auto buf = cluster_->device(0).Allocate(kCkptSize);
      if (!buf.ok()) return false;
      for (core::Version v = 0; v < kCkpts; ++v) {
        rtm::FillPattern(0, v, *buf, kCkptSize);
        if (!engine_->Checkpoint(0, v, *buf, kCkptSize).ok()) return false;
      }
      return cluster_->device(0).Free(*buf).ok();
    });
    return writer_.wait_for(bound) == std::future_status::ready;
  }

  std::unique_ptr<sim::Cluster> cluster_;
  std::shared_ptr<test_support::GatedStore> ssd_;
  std::shared_ptr<test_support::GatedStore> term_;
  std::unique_ptr<core::Engine> engine_;
  std::future<bool> writer_;
};

TEST_F(DurableDrainTest, StalledTerminalTierDoesNotThrottleCheckpoint) {
  Build(/*lineage=*/false);
  // 48 checkpoints are three times what both caches hold. Each copy is
  // evictable once it has landed on the SSD, so admission never waits for
  // the shut terminal tier.
  const bool in_time = CheckpointAllWithin(std::chrono::seconds(5));
  term_->Open();
  ASSERT_TRUE(writer_.get());
  EXPECT_TRUE(in_time) << "Checkpoint() blocked behind the gated terminal";
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());

  // The durable drain read each landed copy back exactly once; nothing
  // else has read the SSD yet (no prefetch, no restore so far).
  EXPECT_EQ(ssd_->gets(), kCkpts);
  EXPECT_EQ(ssd_->puts(), kCkpts);
  EXPECT_EQ(term_->puts(), kCkpts);
  const core::RankMetrics m = engine_->MetricsSnapshot(0);
  EXPECT_EQ(m.tier_degradations, 0u);
  EXPECT_EQ(m.flush_failures, 0u);

  auto buf = cluster_->device(0).Allocate(kCkptSize);
  ASSERT_TRUE(buf.ok());
  for (core::Version v = 0; v < kCkpts; ++v) {
    EXPECT_TRUE(term_->Exists({0, v})) << "version " << v;
    auto tier = engine_->DurableTierIndexOf(0, v);
    ASSERT_TRUE(tier.ok()) << tier.status();
    EXPECT_EQ(*tier, 3) << "version " << v;  // term's stack index
    ASSERT_TRUE(engine_->Restore(0, v, *buf, kCkptSize).ok());
    EXPECT_TRUE(rtm::CheckPattern(0, v, *buf, kCkptSize)) << "version " << v;
  }
  ASSERT_TRUE(cluster_->device(0).Free(*buf).ok());
}

TEST_F(DurableDrainTest, DurabilityLagIsChargedWhenTheCopyLands) {
  Build(/*lineage=*/true);
  constexpr std::size_t kSsdIndex = 2;
  constexpr std::size_t kTermIndex = 3;
  ASSERT_TRUE(CheckpointAllWithin(std::chrono::seconds(5)));
  ASSERT_TRUE(writer_.get());
  // Every checkpoint acks its SSD landing while the terminal gate is still
  // shut: the per-tier lag measures landing at that tier.
  std::uint64_t ssd_acks = 0;
  for (int i = 0; i < 500 && ssd_acks < kCkpts; ++i) {
    ssd_acks = engine_->MetricsSnapshot(0).durable_lag_hist[kSsdIndex].total();
    if (ssd_acks < kCkpts) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(ssd_acks, kCkpts);
  EXPECT_EQ(engine_->MetricsSnapshot(0).durable_lag_hist[kTermIndex].total(),
            0u);
  EXPECT_EQ(term_->puts(), 0u);

  term_->Open();
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  const core::RankMetrics m = engine_->MetricsSnapshot(0);
  EXPECT_EQ(m.durable_lag_hist[kTermIndex].total(), kCkpts);
  EXPECT_EQ(m.objects_admitted, kCkpts);
  EXPECT_EQ(m.objects_durable, kCkpts);
}

// The durable drain has its own track: the cache stage's terminal span
// covers only the SSD landing, the terminal puts run on r<rank>/flush:ssd,
// and every object's flow still ends exactly once.
TEST_F(DurableDrainTest, DrainRunsOnItsOwnTraceTrack) {
#ifdef CKPT_TRACE_DISABLED
  GTEST_SKIP() << "built with CKPT_TRACE_DISABLED";
#endif
  util::trace::ResetBuffers();
  util::trace::Enable();
  Build(/*lineage=*/true);
  term_->Open();
  ASSERT_TRUE(CheckpointAllWithin(std::chrono::seconds(5)));
  ASSERT_TRUE(writer_.get());
  ASSERT_TRUE(engine_->WaitForFlushes(0).ok());
  engine_->Shutdown();  // joins the workers: every queued event is published

  std::uint64_t landings = 0, ssd_puts = 0, term_puts_on_drain = 0,
                term_puts_elsewhere = 0;
  for (const auto& t : util::trace::Collect().threads) {
    for (const auto& e : t.events) {
      if (e.dur_ns < 0 || e.flow != util::trace::FlowPhase::kNone) continue;
      const std::string_view name(e.name);
      if (name.ends_with(">durable")) {  // a cache stage's terminal span
        EXPECT_EQ(e.tier, 2) << t.thread_name << " " << name;  // ssd
        ++landings;
      } else if (name == "flush:ssd") {
        ++ssd_puts;
      } else if (name == "flush:term") {
        ++(t.thread_name == "r0/flush:ssd" ? term_puts_on_drain
                                            : term_puts_elsewhere);
      }
    }
  }
  EXPECT_EQ(landings, kCkpts);
  EXPECT_EQ(ssd_puts, kCkpts);
  EXPECT_EQ(term_puts_on_drain, kCkpts);
  EXPECT_EQ(term_puts_elsewhere, 0u);

  const core::TraceCheck check = core::ValidateChromeTrace(core::ChromeTraceJson());
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.flows, kCkpts);
  EXPECT_EQ(check.flow_finishes, kCkpts);
  EXPECT_EQ(check.flows_dangling, 0u);
  EXPECT_GE(check.flows_in("flush"), 1u);
}

}  // namespace
}  // namespace ckpt::harness
