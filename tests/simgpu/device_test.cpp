#include "simgpu/device.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

namespace ckpt::sim {
namespace {

TEST(DeviceTest, AllocateAndFreeRoundTrip) {
  Device dev({0, 0}, 1 << 20, nullptr);
  auto p = dev.Allocate(1000);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(dev.Owns(*p));
  EXPECT_EQ(dev.used(), 1024u);  // 256-byte aligned
  EXPECT_TRUE(dev.Free(*p).ok());
  EXPECT_EQ(dev.used(), 0u);
}

TEST(DeviceTest, AllocationsAreAligned) {
  Device dev({0, 0}, 1 << 20, nullptr);
  auto first = dev.Allocate(100);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 5; ++i) {
    auto p = dev.Allocate(100 + i);
    ASSERT_TRUE(p.ok());
    // Offsets within the arena are multiples of the alignment.
    EXPECT_EQ(static_cast<std::uint64_t>(*p - *first) % Device::kAlignment, 0u);
  }
}

TEST(DeviceTest, ZeroAllocationRejected) {
  Device dev({0, 0}, 1 << 20, nullptr);
  EXPECT_FALSE(dev.Allocate(0).ok());
}

TEST(DeviceTest, OutOfMemoryWhenExhausted) {
  Device dev({0, 0}, 1 << 10, nullptr);
  auto p = dev.Allocate(1 << 10);
  ASSERT_TRUE(p.ok());
  auto q = dev.Allocate(1);
  EXPECT_EQ(q.status().code(), util::ErrorCode::kOutOfMemory);
}

TEST(DeviceTest, FreeRejectsForeignAndDoubleFree) {
  Device dev({0, 0}, 1 << 20, nullptr);
  std::byte local;
  EXPECT_FALSE(dev.Free(&local).ok());
  auto p = dev.Allocate(512);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(dev.Free(*p).ok());
  EXPECT_FALSE(dev.Free(*p).ok());  // double free
  // Mid-allocation pointer is not an allocation start.
  auto q = dev.Allocate(512);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(dev.Free(*q + 256).ok());
}

TEST(DeviceTest, CoalescingAllowsFullReuse) {
  Device dev({0, 0}, 4 << 10, nullptr);
  std::vector<BytePtr> ptrs;
  for (int i = 0; i < 4; ++i) {
    auto p = dev.Allocate(1 << 10);
    ASSERT_TRUE(p.ok());
    ptrs.push_back(*p);
  }
  // Free in an order that exercises prev+next coalescing.
  ASSERT_TRUE(dev.Free(ptrs[1]).ok());
  ASSERT_TRUE(dev.Free(ptrs[3]).ok());
  ASSERT_TRUE(dev.Free(ptrs[2]).ok());
  ASSERT_TRUE(dev.Free(ptrs[0]).ok());
  EXPECT_EQ(dev.largest_free_block(), dev.capacity());
  auto big = dev.Allocate(dev.capacity());
  EXPECT_TRUE(big.ok());
}

TEST(DeviceTest, FragmentationLimitsLargestBlock) {
  Device dev({0, 0}, 4 << 10, nullptr);
  auto a = dev.Allocate(1 << 10);
  auto b = dev.Allocate(1 << 10);
  auto c = dev.Allocate(1 << 10);
  auto d = dev.Allocate(1 << 10);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  ASSERT_TRUE(dev.Free(*a).ok());
  ASSERT_TRUE(dev.Free(*c).ok());
  EXPECT_EQ(dev.free_bytes(), 2ull << 10);
  EXPECT_EQ(dev.largest_free_block(), 1ull << 10);  // non-adjacent gaps
  EXPECT_FALSE(dev.Allocate(2 << 10).ok());
}

TEST(DeviceTest, RandomAllocFreeStress) {
  Device dev({0, 1}, 1 << 20, nullptr);
  std::mt19937_64 rng(3);
  std::vector<BytePtr> live;
  for (int iter = 0; iter < 2000; ++iter) {
    if (live.empty() || rng() % 2 == 0) {
      const std::uint64_t size = 1 + rng() % (8 << 10);
      auto p = dev.Allocate(size);
      if (p.ok()) live.push_back(*p);
    } else {
      const std::size_t idx = rng() % live.size();
      ASSERT_TRUE(dev.Free(live[idx]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_LE(dev.used(), dev.capacity());
  }
  for (BytePtr p : live) ASSERT_TRUE(dev.Free(p).ok());
  EXPECT_EQ(dev.used(), 0u);
  EXPECT_EQ(dev.largest_free_block(), dev.capacity());
}

TEST(DeviceTest, ReallocatedBlockReadsAsZero) {
  Device dev({0, 0}, 4 << 10, nullptr);
  auto a = dev.Allocate(1 << 10);
  auto b = dev.Allocate(1 << 10);
  ASSERT_TRUE(a.ok() && b.ok());
  std::memset(*a, 0xAB, 1 << 10);
  std::memset(*b, 0xCD, 1 << 10);
  ASSERT_TRUE(dev.Free(*a).ok());
  ASSERT_TRUE(dev.Free(*b).ok());
  // First fit hands the dirtied (and coalesced) range straight back.
  auto c = dev.Allocate(2 << 10);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(*c, *a);
  const std::vector<std::byte> zeros(2 << 10);
  EXPECT_EQ(std::memcmp(*c, zeros.data(), zeros.size()), 0);
}

TEST(DeviceTest, AllocLimiterChargesCost) {
  util::RateLimiter limiter(1 << 20, /*burst=*/1);  // 1 MiB/s
  Device dev({0, 0}, 1 << 20, &limiter);
  const auto t0 = std::chrono::steady_clock::now();
  auto p = dev.Allocate(256 << 10);  // ~0.25 s at 1 MiB/s
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  ASSERT_TRUE(p.ok());
  EXPECT_GT(elapsed, 0.1);
}

}  // namespace
}  // namespace ckpt::sim
