#include "simgpu/staging_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "util/clock.hpp"

namespace ckpt::sim {
namespace {

TEST(PinnedStagingPoolTest, ReusesAReturnedBuffer) {
  Topology topo(TopologyConfig::Testing());
  PinnedStagingPool pool(topo, 0);
  BytePtr first = nullptr;
  {
    PinnedStagingPool::Lease lease = pool.Acquire(4096);
    ASSERT_NE(lease.data(), nullptr);
    EXPECT_GE(lease.size(), 4096u);
    first = lease.data();
  }
  for (std::uint64_t size : {4096u, 1000u, 1u}) {
    PinnedStagingPool::Lease lease = pool.Acquire(size);
    EXPECT_EQ(lease.data(), first) << "size " << size;
  }
  EXPECT_EQ(pool.registrations(), 1u);
  EXPECT_EQ(pool.registered_bytes(), 4096u);
}

TEST(PinnedStagingPoolTest, GrowsGeometricallyAndOnlyWhenNothingFits) {
  Topology topo(TopologyConfig::Testing());
  PinnedStagingPool pool(topo, 0);
  { auto lease = pool.Acquire(4096); }
  // 5000 > 4096: the free buffer is replaced by one of max(5000, 2 * 4096).
  {
    auto lease = pool.Acquire(5000);
    EXPECT_EQ(lease.size(), 8192u);
  }
  EXPECT_EQ(pool.registrations(), 2u);
  EXPECT_EQ(pool.registered_bytes(), 4096u + 8192u);
  // Everything up to the grown size is served without registering.
  for (std::uint64_t size : {8192u, 6000u, 4096u}) {
    auto lease = pool.Acquire(size);
    EXPECT_EQ(lease.size(), 8192u);
  }
  EXPECT_EQ(pool.registrations(), 2u);
  // A request beyond twice the largest buffer registers exactly its size.
  { auto lease = pool.Acquire(100'000); EXPECT_EQ(lease.size(), 100'000u); }
  EXPECT_EQ(pool.registrations(), 3u);
}

TEST(PinnedStagingPoolTest, ChargesRegistrationOnlyOnGrowth) {
  // 4 MiB/s: a 256 KiB registration sleeps ~62 ms, a reuse none of it.
  TopologyConfig cfg = TopologyConfig::Testing();
  cfg.pinned_alloc_bw = 4 << 20;
  Topology topo(cfg);
  PinnedStagingPool pool(topo, 0);
  const auto timed_acquire = [&pool](std::uint64_t size) {
    const util::Stopwatch sw;
    { auto lease = pool.Acquire(size); }
    return sw.ElapsedSec();
  };
  EXPECT_GT(timed_acquire(256 << 10), 0.05);   // first registration
  EXPECT_LT(timed_acquire(256 << 10), 0.025);  // reuse
  EXPECT_LT(timed_acquire(100 << 10), 0.025);  // smaller: reuse
  EXPECT_GT(timed_acquire(300 << 10), 0.1);    // growth to 512 KiB
  EXPECT_LT(timed_acquire(512 << 10), 0.025);  // reuse of the grown buffer
  EXPECT_EQ(pool.registrations(), 2u);
}

TEST(PinnedStagingPoolTest, ConcurrentLeasesNeverShareABuffer) {
  Topology topo(TopologyConfig::Testing());
  PinnedStagingPool pool(topo, 0);
  {
    auto a = pool.Acquire(4096);
    auto b = pool.Acquire(4096);
    EXPECT_NE(a.data(), b.data());
  }
  // Both buffers are free again: two leases reuse them without registering.
  {
    auto a = pool.Acquire(4096);
    auto b = pool.Acquire(4096);
    EXPECT_NE(a.data(), b.data());
  }
  EXPECT_EQ(pool.registrations(), 2u);
}

TEST(PinnedStagingPoolTest, ThreadsHoldingLeasesSeeOnlyTheirOwnBytes) {
  Topology topo(TopologyConfig::Testing());
  PinnedStagingPool pool(topo, 0);
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  constexpr std::uint64_t kSize = 8 << 10;
  std::atomic<int> corrupted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &corrupted, t] {
      for (int i = 0; i < kRounds; ++i) {
        auto lease = pool.Acquire(kSize);
        const auto mark = static_cast<unsigned char>(t * kRounds + i);
        std::memset(lease.data(), mark, kSize);
        std::this_thread::yield();
        for (std::uint64_t b = 0; b < kSize; ++b) {
          if (lease.data()[b] != std::byte{mark}) {
            corrupted.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(corrupted.load(), 0);
  // Equal sizes never grow: at most one buffer per concurrent holder.
  EXPECT_GE(pool.registrations(), 1u);
  EXPECT_LE(pool.registrations(), static_cast<std::uint64_t>(kThreads));
}

}  // namespace
}  // namespace ckpt::sim
