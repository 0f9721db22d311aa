#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace ckpt::harness {
namespace {

TEST(HarnessTest, BenchScaleDefaults) {
  ::unsetenv("CKPT_BENCH_CKPTS");
  ::unsetenv("CKPT_BENCH_RANKS");
  ::unsetenv("CKPT_BENCH_INTERVAL_US");
  const BenchScale s = LoadBenchScale();
  EXPECT_EQ(s.num_ckpts, 384);  // the paper's per-shot checkpoint count
  EXPECT_EQ(s.num_ranks, 8);    // one DGX node
  EXPECT_EQ(s.interval, std::chrono::microseconds(1000));
}

TEST(HarnessTest, BenchScaleEnvOverrides) {
  ::setenv("CKPT_BENCH_CKPTS", "48", 1);
  ::setenv("CKPT_BENCH_RANKS", "2", 1);
  ::setenv("CKPT_BENCH_INTERVAL_US", "250", 1);
  const BenchScale s = LoadBenchScale();
  EXPECT_EQ(s.num_ckpts, 48);
  EXPECT_EQ(s.num_ranks, 2);
  EXPECT_EQ(s.interval, std::chrono::microseconds(250));
  ::unsetenv("CKPT_BENCH_CKPTS");
  ::unsetenv("CKPT_BENCH_RANKS");
  ::unsetenv("CKPT_BENCH_INTERVAL_US");
}

TEST(HarnessTest, RejectsMoreRanksThanGpus) {
  ExperimentConfig cfg;
  cfg.topology = sim::TopologyConfig::Testing();  // 2 GPUs
  cfg.num_ranks = 5;
  EXPECT_FALSE(RunExperiment(cfg).ok());
}

TEST(HarnessTest, ResultFieldsPopulated) {
  ExperimentConfig cfg;
  cfg.topology = sim::TopologyConfig::Testing();
  cfg.num_ranks = 2;
  cfg.gpu_cache_bytes = 256 << 10;
  cfg.host_cache_bytes = 1 << 20;
  cfg.shot.num_ckpts = 8;
  cfg.shot.trace.num_snapshots = 8;
  cfg.shot.trace.uniform_size = 32 << 10;
  cfg.shot.compute_interval = std::chrono::microseconds(100);
  cfg.shot.verify = true;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->config_name, "All hints, Score");
  EXPECT_GT(result->ckpt_MBps_mean, 0.0);
  EXPECT_GT(result->restore_MBps_mean, 0.0);
  EXPECT_NEAR(result->ckpt_MBps_agg, result->ckpt_MBps_mean * 2, 1e-9);
  EXPECT_EQ(result->shot.verify_failures, 0u);
}

TEST(HarnessTest, EveryApproachBuildsAndRuns) {
  for (Approach a : {Approach::kAdios, Approach::kUvm, Approach::kScore}) {
    ExperimentConfig cfg;
    cfg.topology = sim::TopologyConfig::Testing();
    cfg.num_ranks = 1;
    cfg.gpu_cache_bytes = 128 << 10;
    cfg.host_cache_bytes = 512 << 10;
    cfg.shot.num_ckpts = 6;
    cfg.shot.trace.num_snapshots = 6;
    cfg.shot.trace.uniform_size = 16 << 10;
    cfg.shot.compute_interval = std::chrono::microseconds(50);
    cfg.shot.verify = true;
    cfg.approach = a;
    auto result = RunExperiment(cfg);
    ASSERT_TRUE(result.ok()) << to_string(a) << ": " << result.status();
    EXPECT_EQ(result->shot.verify_failures, 0u) << to_string(a);
  }
}

ExperimentConfig SmallScoreShot() {
  ExperimentConfig cfg;
  cfg.topology = sim::TopologyConfig::Testing();
  cfg.num_ranks = 1;
  cfg.gpu_cache_bytes = 128 << 10;
  cfg.host_cache_bytes = 512 << 10;
  cfg.shot.num_ckpts = 6;
  cfg.shot.trace.num_snapshots = 6;
  cfg.shot.trace.uniform_size = 16 << 10;
  cfg.shot.compute_interval = std::chrono::microseconds(50);
  cfg.shot.verify = true;
  return cfg;
}

TEST(HarnessTest, TerminalNameAppliesToTheDefaultStack) {
  ExperimentConfig cfg = SmallScoreShot();
  cfg.terminal_tier_name = "pfs";
  // The deeper tiers are written by a drain; the barrier lets every
  // checkpoint reach the terminal before the shot's metrics are taken.
  cfg.shot.wait_for_flush = true;
  auto result = RunExperiment(cfg);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->shot.verify_failures, 0u);
  ASSERT_EQ(result->shot.merged.flush_bytes_to_tier.size(), 4u);
  EXPECT_GT(result->shot.merged.flush_bytes_to_tier[3], 0u);  // pfs
}

TEST(HarnessTest, UnknownTerminalNameIsRejected) {
  ExperimentConfig cfg = SmallScoreShot();
  cfg.terminal_tier_name = "tape";
  EXPECT_EQ(RunExperiment(cfg).status().code(),
            util::ErrorCode::kInvalidArgument);

  MultiTenantConfig mt;
  mt.topology = sim::TopologyConfig::Testing();
  mt.ranks_per_tenant = 1;
  mt.gpu_cache_bytes = 128 << 10;
  mt.host_cache_bytes = 512 << 10;
  mt.shot = cfg.shot;
  mt.synth_ckpts = 4;
  mt.synth_ckpt_bytes = 16 << 10;
  mt.terminal_tier_name = "tape";
  EXPECT_EQ(RunMultiTenantExperiment(mt).status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(HarnessTest, Table1Notation) {
  EXPECT_EQ(ConfigName(Approach::kScore, rtm::HintMode::kNone), "No hints, Score");
  EXPECT_EQ(ConfigName(Approach::kAdios, rtm::HintMode::kAll),
            "All hints, ADIOS2");
  EXPECT_STREQ(to_string(Approach::kUvm), "UVM");
}

TEST(HarnessTest, TablePrintersDoNotCrash) {
  PrintTableHeader("test title", "variant");
  PrintTableRow("All hints, Score", "reverse", 123.4, 567.8);
}

}  // namespace
}  // namespace ckpt::harness
