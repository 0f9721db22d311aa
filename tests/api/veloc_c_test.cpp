// Tests of the C API shim, including the Listing-1 flow written exactly as
// a C client would write it.
#include "api/veloc_c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/trace.hpp"

namespace {

/// The C API owns one process-global runtime; serialize tests around it.
class VelocCApiTest : public ::testing::Test {
 protected:
  void TearDown() override { VELOCX_Finalize(); }
};

TEST_F(VelocCApiTest, InitFinalizeLifecycle) {
  ASSERT_EQ(VELOCX_Init("gpu_cache = 512Ki, host_cache = 2Mi", 1),
            VELOCX_SUCCESS);
  EXPECT_EQ(VELOCX_Init(nullptr, 1), VELOCX_EINVAL);  // double init
  EXPECT_EQ(VELOCX_Finalize(), VELOCX_SUCCESS);
  EXPECT_EQ(VELOCX_Finalize(), VELOCX_SUCCESS);  // idempotent
}

TEST_F(VelocCApiTest, RejectsBadConfigAndArgs) {
  EXPECT_EQ(VELOCX_Init("eviction = quantum", 1), VELOCX_EINVAL);
  EXPECT_NE(VELOCX_Error_string()[0], '\0');
  EXPECT_EQ(VELOCX_Init(nullptr, 0), VELOCX_EINVAL);
  EXPECT_EQ(VELOCX_Init("not a config line", 1), VELOCX_EINVAL);
  // Calls before init:
  EXPECT_EQ(VELOCX_Checkpoint_wait(0), VELOCX_EINVAL);
  void* p = nullptr;
  EXPECT_EQ(VELOCX_Device_alloc(0, 128, &p), VELOCX_ESHUTDOWN);
}

TEST_F(VelocCApiTest, Listing1EndToEnd) {
  ASSERT_EQ(VELOCX_Init("gpu_cache = 256Ki, host_cache = 1Mi", 1),
            VELOCX_SUCCESS);
  enum { kNumCkpts = 12, kSize = 32 << 10 };
  void* ptr = nullptr;
  ASSERT_EQ(VELOCX_Device_alloc(0, kSize, &ptr), VELOCX_SUCCESS);

  for (int ver = kNumCkpts - 1; ver >= 0; --ver) {
    ASSERT_EQ(VELOCX_Prefetch_enqueue(0, (uint64_t)ver), VELOCX_SUCCESS);
  }
  ASSERT_EQ(VELOCX_Mem_protect(0, 1, ptr, kSize), VELOCX_SUCCESS);
  for (int ver = 0; ver < kNumCkpts; ++ver) {
    std::memset(ptr, ver + 1, kSize);  /* "compute" */
    ASSERT_EQ(VELOCX_Checkpoint(0, "shot", (uint64_t)ver), VELOCX_SUCCESS);
  }
  ASSERT_EQ(VELOCX_Prefetch_start(0), VELOCX_SUCCESS);
  for (int ver = kNumCkpts - 1; ver >= 0; --ver) {
    size_t size = 0;
    ASSERT_EQ(VELOCX_Recover_size(0, (uint64_t)ver, 1, &size), VELOCX_SUCCESS);
    ASSERT_EQ(size, (size_t)kSize);
    ASSERT_EQ(VELOCX_Mem_protect(0, 1, ptr, size), VELOCX_SUCCESS);
    ASSERT_EQ(VELOCX_Restart(0, (uint64_t)ver), VELOCX_SUCCESS);
    EXPECT_EQ(std::memcmp(ptr, std::vector<char>(kSize, ver + 1).data(), kSize),
              0);
  }
  ASSERT_EQ(VELOCX_Device_free(0, ptr), VELOCX_SUCCESS);
}

TEST_F(VelocCApiTest, ErrorCodesMapped) {
  ASSERT_EQ(VELOCX_Init(nullptr, 1), VELOCX_SUCCESS);
  void* ptr = nullptr;
  ASSERT_EQ(VELOCX_Device_alloc(0, 4096, &ptr), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Mem_protect(0, 1, ptr, 4096), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Checkpoint(0, "x", 5), VELOCX_SUCCESS);
  EXPECT_EQ(VELOCX_Checkpoint(0, "x", 5), VELOCX_EEXIST);
  EXPECT_EQ(VELOCX_Restart(0, 42), VELOCX_ENOTFOUND);
  size_t size = 0;
  EXPECT_EQ(VELOCX_Recover_size(0, 42, 1, &size), VELOCX_ENOTFOUND);
  EXPECT_EQ(VELOCX_Mem_protect(0, 1, nullptr, 10), VELOCX_EINVAL);
  EXPECT_EQ(VELOCX_Mem_unprotect(0, 99), VELOCX_ENOTFOUND);
  EXPECT_EQ(VELOCX_Checkpoint(3, "x", 0), VELOCX_EINVAL);  // bad rank
  ASSERT_EQ(VELOCX_Device_free(0, ptr), VELOCX_SUCCESS);
}

TEST_F(VelocCApiTest, MultiRankAndWait) {
  ASSERT_EQ(VELOCX_Init("gpu_cache = 256Ki, host_cache = 1Mi", 2),
            VELOCX_SUCCESS);
  for (int r = 0; r < 2; ++r) {
    void* ptr = nullptr;
    ASSERT_EQ(VELOCX_Device_alloc(r, 8192, &ptr), VELOCX_SUCCESS);
    ASSERT_EQ(VELOCX_Mem_protect(r, 1, ptr, 8192), VELOCX_SUCCESS);
    std::memset(ptr, 0x40 + r, 8192);
    ASSERT_EQ(VELOCX_Checkpoint(r, "mr", 0), VELOCX_SUCCESS);
    ASSERT_EQ(VELOCX_Checkpoint_wait(r), VELOCX_SUCCESS);
    ASSERT_EQ(VELOCX_Restart(r, 0), VELOCX_SUCCESS);
    EXPECT_EQ(static_cast<unsigned char*>(ptr)[100], 0x40 + r);
    ASSERT_EQ(VELOCX_Device_free(r, ptr), VELOCX_SUCCESS);
  }
}

TEST_F(VelocCApiTest, TiersConfigBuildsCustomStack) {
  // Host-only 3-tier stack via the "tiers" key (';' separates entries
  // inside a config value).
  ASSERT_EQ(VELOCX_Init("tiers = host:cache:1Mi;ssd:durable;pfs:durable, "
                        "terminal_tier = pfs",
                        1),
            VELOCX_SUCCESS);
  void* ptr = nullptr;
  ASSERT_EQ(VELOCX_Device_alloc(0, 8192, &ptr), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Mem_protect(0, 1, ptr, 8192), VELOCX_SUCCESS);
  std::memset(ptr, 0x5a, 8192);
  ASSERT_EQ(VELOCX_Checkpoint(0, "nt", 0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Checkpoint_wait(0), VELOCX_SUCCESS);
  std::memset(ptr, 0, 8192);
  ASSERT_EQ(VELOCX_Restart(0, 0), VELOCX_SUCCESS);
  EXPECT_EQ(static_cast<unsigned char*>(ptr)[4096], 0x5a);
  ASSERT_EQ(VELOCX_Device_free(0, ptr), VELOCX_SUCCESS);
}

/// Checkpoints one 8 KiB region as version 0 of rank 0, waits for its
/// flush, and restores it byte-exact.
void RoundTripOneCheckpoint() {
  void* ptr = nullptr;
  ASSERT_EQ(VELOCX_Device_alloc(0, 8192, &ptr), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Mem_protect(0, 1, ptr, 8192), VELOCX_SUCCESS);
  std::memset(ptr, 0x6c, 8192);
  ASSERT_EQ(VELOCX_Checkpoint(0, "rt", 0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Checkpoint_wait(0), VELOCX_SUCCESS);
  std::memset(ptr, 0, 8192);
  ASSERT_EQ(VELOCX_Restart(0, 0), VELOCX_SUCCESS);
  EXPECT_EQ(static_cast<unsigned char*>(ptr)[2048], 0x6c);
  ASSERT_EQ(VELOCX_Device_free(0, ptr), VELOCX_SUCCESS);
}

TEST_F(VelocCApiTest, SsdDirKeyPersistsToThatDirectory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "velocx_ssd_dir";
  fs::remove_all(dir);
  const std::string cfg = "ssd_dir = " + dir.string();
  ASSERT_EQ(VELOCX_Init(cfg.c_str(), 1), VELOCX_SUCCESS);
  RoundTripOneCheckpoint();
  std::size_t objects = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") ++objects;
  }
  EXPECT_EQ(objects, 1u);
  ASSERT_EQ(VELOCX_Finalize(), VELOCX_SUCCESS);
  fs::remove_all(dir);
}

TEST_F(VelocCApiTest, TerminalTierKeyWithoutTiers) {
  ASSERT_EQ(VELOCX_Init("terminal_tier = pfs", 1), VELOCX_SUCCESS);
  RoundTripOneCheckpoint();
  ASSERT_EQ(VELOCX_Finalize(), VELOCX_SUCCESS);

  EXPECT_EQ(VELOCX_Init("terminal_tier = tape", 1), VELOCX_EINVAL);
  EXPECT_NE(std::string(VELOCX_Error_string()).find("tape"),
            std::string::npos);
  // A failed Init leaves the runtime un-initialized.
  EXPECT_EQ(VELOCX_Checkpoint(0, "x", 0), VELOCX_EINVAL);
  void* p = nullptr;
  EXPECT_EQ(VELOCX_Device_alloc(0, 128, &p), VELOCX_ESHUTDOWN);
}

TEST_F(VelocCApiTest, TiersConfigAcceptsPerTierPolicies) {
  // Mixed-policy stack through the C API: gpu=score, host=fifo, and the
  // legacy global "eviction" key only sets the default for silent tiers.
  ASSERT_EQ(
      VELOCX_Init("tiers = gpu:gpucache:256Ki:score;host:cache:1Mi:fifo;"
                  "ssd:durable, eviction = lru",
                  1),
      VELOCX_SUCCESS);
  void* ptr = nullptr;
  ASSERT_EQ(VELOCX_Device_alloc(0, 8192, &ptr), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Mem_protect(0, 1, ptr, 8192), VELOCX_SUCCESS);
  std::memset(ptr, 0x33, 8192);
  ASSERT_EQ(VELOCX_Checkpoint(0, "pp", 0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Checkpoint_wait(0), VELOCX_SUCCESS);
  std::memset(ptr, 0, 8192);
  ASSERT_EQ(VELOCX_Restart(0, 0), VELOCX_SUCCESS);
  EXPECT_EQ(static_cast<unsigned char*>(ptr)[1024], 0x33);
  ASSERT_EQ(VELOCX_Device_free(0, ptr), VELOCX_SUCCESS);
}

TEST_F(VelocCApiTest, InvalidTiersConfigIsRejectedAtInit) {
  EXPECT_EQ(VELOCX_Init("tiers = host:cache:0;ssd:durable", 1), VELOCX_EINVAL);
  // Unknown per-tier policy names fail Init, like every stack violation.
  EXPECT_EQ(VELOCX_Init("tiers = host:cache:1Mi:belady;ssd:durable", 1),
            VELOCX_EINVAL);
  EXPECT_EQ(VELOCX_Init("tiers = host:cache:1Mi", 1), VELOCX_EINVAL);
  EXPECT_EQ(VELOCX_Init("tiers = host:cache:1Mi;ssd:durable, "
                        "terminal_tier = tape",
                        1),
            VELOCX_EINVAL);
  // A failed Init must leave the runtime un-initialized, not half-built.
  EXPECT_EQ(VELOCX_Checkpoint(0, "x", 0), VELOCX_EINVAL);
  ASSERT_EQ(VELOCX_Init("tiers = host:cache:1Mi;ssd:durable", 1),
            VELOCX_SUCCESS);
}

TEST_F(VelocCApiTest, RejectedConfigConfiguresNothing) {
  // Every key is validated before any side effect: the trace knobs of a
  // config rejected for its backend spec never reach the trace subsystem.
  ckpt::util::trace::Disable();
  EXPECT_EQ(VELOCX_Init("trace = true, "
                        "tiers = host:cache:1Mi;ssd:durable:tape://x",
                        1),
            VELOCX_EINVAL);
  EXPECT_NE(std::string(VELOCX_Error_string()).find("unknown backend"),
            std::string::npos);
  EXPECT_FALSE(ckpt::util::trace::enabled());
  EXPECT_EQ(VELOCX_Init("trace = true, "
                        "tiers = host:cache:1Mi;r:durable:s3://b?part=0",
                        1),
            VELOCX_EINVAL);
  EXPECT_FALSE(ckpt::util::trace::enabled());
  // The legacy cache/SSD keys are shorthand for the default stack: with an
  // explicit "tiers" spec they contradict it and are rejected by name.
  for (const char* key : {"gpu_cache = 1Mi", "host_cache = 1Mi",
                          "ssd_dir = /nonexistent"}) {
    const std::string cfg =
        std::string("trace = true, tiers = host:cache:1Mi;ssd:durable, ") +
        key;
    EXPECT_EQ(VELOCX_Init(cfg.c_str(), 1), VELOCX_EINVAL) << key;
    const std::string name(key, std::strchr(key, ' '));
    EXPECT_NE(std::string(VELOCX_Error_string()).find(name),
              std::string::npos)
        << VELOCX_Error_string();
    EXPECT_FALSE(ckpt::util::trace::enabled());
  }
  EXPECT_EQ(VELOCX_Checkpoint(0, "x", 0), VELOCX_EINVAL);
}

TEST_F(VelocCApiTest, MetricsSnapshotJsonWritesParseableFile) {
  ASSERT_EQ(VELOCX_Init("gpu_cache = 256Ki, host_cache = 1Mi", 1),
            VELOCX_SUCCESS);
  // Argument validation first: bad path / missing runtime.
  EXPECT_EQ(VELOCX_Metrics_snapshot_json(nullptr), VELOCX_EINVAL);
  EXPECT_EQ(VELOCX_Metrics_snapshot_json(""), VELOCX_EINVAL);

  void* ptr = nullptr;
  ASSERT_EQ(VELOCX_Device_alloc(0, 8192, &ptr), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Mem_protect(0, 1, ptr, 8192), VELOCX_SUCCESS);
  std::memset(ptr, 0x11, 8192);
  ASSERT_EQ(VELOCX_Checkpoint(0, "obs", 0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Checkpoint_wait(0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Restart(0, 0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Device_free(0, ptr), VELOCX_SUCCESS);

  const std::string path = ::testing::TempDir() + "velocx_metrics.json";
  ASSERT_EQ(VELOCX_Metrics_snapshot_json(path.c_str()), VELOCX_SUCCESS);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  // Cheap structural checks without dragging the parser into the C tests.
  EXPECT_NE(json.find("\"tiers\""), std::string::npos);
  EXPECT_NE(json.find("\"merged\""), std::string::npos);
  EXPECT_NE(json.find("\"restore_series\""), std::string::npos);

  ASSERT_EQ(VELOCX_Finalize(), VELOCX_SUCCESS);
  EXPECT_EQ(VELOCX_Metrics_snapshot_json(path.c_str()), VELOCX_ESHUTDOWN);
}

TEST_F(VelocCApiTest, TraceDumpHonorsConfigKeysAndExplicitPath) {
#ifdef CKPT_TRACE_DISABLED
  GTEST_SKIP() << "built with CKPT_TRACE_DISABLED";
#else
  const std::string path = ::testing::TempDir() + "velocx_trace.json";
  // trace_out configured but dump to an explicit path; trace=true turns
  // the subsystem on for the process.
  const std::string cfg = "gpu_cache = 256Ki, host_cache = 1Mi, trace = true, "
                          "trace_capacity = 4096";
  ASSERT_EQ(VELOCX_Init(cfg.c_str(), 1), VELOCX_SUCCESS);
  void* ptr = nullptr;
  ASSERT_EQ(VELOCX_Device_alloc(0, 8192, &ptr), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Mem_protect(0, 1, ptr, 8192), VELOCX_SUCCESS);
  std::memset(ptr, 0x22, 8192);
  ASSERT_EQ(VELOCX_Checkpoint(0, "tr", 0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Checkpoint_wait(0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Restart(0, 0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Device_free(0, ptr), VELOCX_SUCCESS);

  ASSERT_EQ(VELOCX_Trace_dump(path.c_str()), VELOCX_SUCCESS);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  ASSERT_EQ(VELOCX_Finalize(), VELOCX_SUCCESS);
  // Leave the process-global subsystem off for the remaining tests.
  ckpt::util::trace::Disable();
  ckpt::util::trace::ResetBuffers();
#endif
}

TEST_F(VelocCApiTest, GpudirectConfigWorks) {
  ASSERT_EQ(VELOCX_Init("gpudirect = true, gpu_cache = 256Ki", 1),
            VELOCX_SUCCESS);
  void* ptr = nullptr;
  ASSERT_EQ(VELOCX_Device_alloc(0, 4096, &ptr), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Mem_protect(0, 1, ptr, 4096), VELOCX_SUCCESS);
  std::memset(ptr, 0x7e, 4096);
  ASSERT_EQ(VELOCX_Checkpoint(0, "gds", 0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Checkpoint_wait(0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Restart(0, 0), VELOCX_SUCCESS);
  EXPECT_EQ(static_cast<unsigned char*>(ptr)[0], 0x7e);
  ASSERT_EQ(VELOCX_Device_free(0, ptr), VELOCX_SUCCESS);
}

TEST_F(VelocCApiTest, TenantsConfigSplitsRanksAndResolvesByName) {
  ASSERT_EQ(VELOCX_Init("gpu_cache = 256Ki, host_cache = 1Mi, "
                        "tenants = jobA:1Mi;jobB:512Ki:0.5",
                        2),
            VELOCX_SUCCESS);
  int a = -1;
  int b = -1;
  ASSERT_EQ(VELOCX_Tenant_open("jobA", &a), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Tenant_open("jobB", &b), VELOCX_SUCCESS);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(VELOCX_Tenant_open("nosuch", &a), VELOCX_ENOTFOUND);
  EXPECT_EQ(VELOCX_Tenant_open(nullptr, &a), VELOCX_EINVAL);

  /* jobB's rank works until its tenant closes; jobA is unaffected. */
  void* pa = nullptr;
  void* pb = nullptr;
  ASSERT_EQ(VELOCX_Device_alloc(0, 4096, &pa), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Device_alloc(1, 4096, &pb), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Mem_protect(0, 1, pa, 4096), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Mem_protect(1, 1, pb, 4096), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Checkpoint(1, "b", 0), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Tenant_close(b), VELOCX_SUCCESS);
  EXPECT_NE(VELOCX_Checkpoint(1, "b", 1), VELOCX_SUCCESS);
  EXPECT_EQ(VELOCX_Checkpoint(0, "a", 0), VELOCX_SUCCESS);
  EXPECT_NE(VELOCX_Tenant_close(b), VELOCX_SUCCESS);  /* double close */
  ASSERT_EQ(VELOCX_Device_free(0, pa), VELOCX_SUCCESS);
  ASSERT_EQ(VELOCX_Device_free(1, pb), VELOCX_SUCCESS);
}

TEST_F(VelocCApiTest, InvalidTenantsConfigIsRejectedAtInit) {
  EXPECT_EQ(VELOCX_Init("tenants = solo", 1), VELOCX_EINVAL);
  EXPECT_EQ(VELOCX_Init("tenants = a:1Mi;a:2Mi", 1), VELOCX_EINVAL);
  EXPECT_EQ(VELOCX_Init("tenants = a:1Mi:0", 1), VELOCX_EINVAL);
  /* more tenants than ranks */
  EXPECT_EQ(VELOCX_Init("tenants = a:1Mi;b:1Mi", 1), VELOCX_EINVAL);
  /* tenant calls on a single-tenant engine still resolve the default */
  ASSERT_EQ(VELOCX_Init(nullptr, 1), VELOCX_SUCCESS);
  int id = -1;
  EXPECT_EQ(VELOCX_Tenant_open("default", &id), VELOCX_SUCCESS);
  EXPECT_EQ(id, 0);
}

}  // namespace
