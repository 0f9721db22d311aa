// Tests of the benchmark's own building blocks: seeded inputs are a pure
// function of the seed, and the timing decorators leave the stores they wrap
// byte-exact and keep their remote/aggregation counters visible.
#include "bench_lib.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "storage/mem_store.hpp"

namespace perfbench {
namespace {

namespace storage = ckpt::storage;

std::vector<std::byte> Bytes(std::size_t n, unsigned salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + salt * 7 + (i >> 8)) & 0xff);
  }
  return v;
}

TEST(PerfbenchInputs, SameSeedGivesIdenticalInputs) {
  for (const Order order : {Order::kReverse, Order::kIrregular}) {
    const auto a = MakeInputs(11, 4, 384, order);
    const auto b = MakeInputs(11, 4, 384, order);
    ASSERT_EQ(a.size(), 4u);
    for (std::size_t r = 0; r < a.size(); ++r) {
      EXPECT_EQ(a[r].sizes, b[r].sizes);
      EXPECT_EQ(a[r].order, b[r].order);
      ASSERT_EQ(a[r].sizes.size(), 384u);
      std::vector<Version> sorted = a[r].order;
      std::sort(sorted.begin(), sorted.end());
      std::vector<Version> iota(384);
      std::iota(iota.begin(), iota.end(), Version{0});
      EXPECT_EQ(sorted, iota) << "restore order must be a permutation";
    }
  }
}

TEST(PerfbenchInputs, DifferentSeedGivesDifferentInputs) {
  const auto a = MakeInputs(11, 4, 384, Order::kIrregular);
  const auto b = MakeInputs(12, 4, 384, Order::kIrregular);
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_NE(a[r].sizes, b[r].sizes);
    EXPECT_NE(a[r].order, b[r].order);
  }
  // Ranks of one seed get distinct series too.
  EXPECT_NE(a[0].sizes, a[1].sizes);
  EXPECT_NE(a[0].order, a[1].order);
}

TEST(PerfbenchInputs, ReverseOrderIsTheAdjointOrder) {
  const auto in = MakeInputs(3, 1, 16, Order::kReverse);
  for (std::size_t k = 0; k < 16; ++k) EXPECT_EQ(in[0].order[k], 15 - k);
}

TEST(PerfbenchTimedStore, PutGetAndGetRangeAreByteExact) {
  auto ledger = std::make_shared<StoreLedger>("t");
  TimedStore store(std::make_shared<storage::MemStore>(), ledger);
  const auto data = Bytes(10'000, 1);
  const storage::ObjectKey key{2, 5};
  ASSERT_TRUE(store.Put(key, data.data(), data.size()).ok());

  std::vector<std::byte> whole(data.size());
  ASSERT_TRUE(store.Get(key, whole.data(), whole.size()).ok());
  EXPECT_EQ(whole, data);
  std::vector<std::byte> slice(1'000);
  ASSERT_TRUE(store.GetRange(key, 4'321, slice.data(), slice.size()).ok());
  EXPECT_EQ(0, std::memcmp(slice.data(), data.data() + 4'321, slice.size()));
  EXPECT_EQ(store.Size(key).value(), data.size());
  EXPECT_TRUE(store.Exists(key));

  EXPECT_EQ(ledger->put.count.load(), 1u);
  EXPECT_EQ(ledger->put.bytes.load(), data.size());
  EXPECT_EQ(ledger->get.count.load(), 2u);
  EXPECT_EQ(ledger->get.bytes.load(), data.size() + slice.size());
  EXPECT_EQ(ledger->put_keys(), std::vector<storage::ObjectKey>{key});
  EXPECT_GT(ledger->last_put_end_ns(), 0);

  std::vector<std::byte> missing(8);
  EXPECT_FALSE(store.Get({9, 9}, missing.data(), missing.size()).ok());
  EXPECT_EQ(ledger->get.failed.load(), 1u);
}

TEST(PerfbenchTimedStore, FactoryKeepsRemoteAndAggregationCounters) {
  const ckpt::sim::Topology topo(ckpt::sim::TopologyConfig::Testing());
  LedgerMap ledgers;
  const auto factory = MakeTimedStoreFactory(topo, ledgers);
  auto made = factory("remote", "s3://ckpts?part=4Ki&lat_us=0&group=4&deadline_ms=0", 1);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  storage::ObjectStore& store = **made;
  ASSERT_EQ(ledgers.count("remote"), 1u);
  ASSERT_EQ(ledgers.count("remote.landed"), 1u);

  std::vector<std::vector<std::byte>> members;
  for (unsigned v = 0; v < 8; ++v) {
    members.push_back(Bytes(3'000 + v * 100, v));
    ASSERT_TRUE(store.Put({1, v}, members[v].data(), members[v].size()).ok());
  }
  storage::StoreStats stats;
  ASSERT_TRUE(store.CollectStats(stats));
  EXPECT_EQ(stats.agg_member_puts, 8u);
  EXPECT_EQ(stats.agg_group_puts, 2u);
  EXPECT_EQ(stats.remote_puts, 2u);
  EXPECT_EQ(stats.agg_pending_members, 0u);
  EXPECT_EQ(ledgers["remote"]->put.count.load(), 8u);
  EXPECT_EQ(ledgers["remote.landed"]->put.count.load(), 2u);
  EXPECT_EQ(ledgers["remote.landed"]->put.bytes.load(),
            ledgers["remote"]->put.bytes.load());

  for (unsigned v = 0; v < 8; ++v) {
    std::vector<std::byte> got(members[v].size());
    ASSERT_TRUE(store.Get({1, v}, got.data(), got.size()).ok());
    EXPECT_EQ(got, members[v]) << "member " << v;
  }
}

TEST(PerfbenchTimedStore, FactoryBuildsThrottledLocalTiers) {
  const ckpt::sim::Topology topo(ckpt::sim::TopologyConfig::Testing());
  LedgerMap ledgers;
  const auto factory = MakeTimedStoreFactory(topo, ledgers);
  for (const int ordinal : {0, 1}) {
    const std::string name = ordinal == 0 ? "ssd" : "pfs";
    auto made = factory(name, "mem", ordinal);
    ASSERT_TRUE(made.ok());
    const auto data = Bytes(5'000, 3);
    ASSERT_TRUE((*made)->Put({0, 1}, data.data(), data.size()).ok());
    std::vector<std::byte> got(data.size());
    ASSERT_TRUE((*made)->Get({0, 1}, got.data(), got.size()).ok());
    EXPECT_EQ(got, data);
    storage::StoreStats stats;
    EXPECT_FALSE((*made)->CollectStats(stats));
    EXPECT_EQ(ledgers[name]->put.count.load(), 1u);
  }
  EXPECT_FALSE(factory("x", "file=elsewhere", 0).ok());
}

TEST(PerfbenchSpans, NestingAndSelfTime) {
  Tracer::Get().Start();
  {
    const ScopedSpan outer("core.restore", Layer::kCore, 1, 7);
    const ScopedSpan inner("storage.ssd.get", Layer::kStorage, 1, 7);
  }
  Tracer::Get().Stop();
  const std::vector<Span> spans = Tracer::Get().Collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].rank, 1);
  EXPECT_EQ(spans[1].version, 7);

  std::vector<Span> synthetic(3);
  synthetic[0] = {"core.restore", Layer::kCore, 0, 1, 0, 100, 0, -1, 0};
  synthetic[1] = {"storage.ssd.get", Layer::kStorage, 0, 1, 10, 70, 0, 0, 0};
  synthetic[2] = {"simgpu.nvme", Layer::kSimgpu, 0, 1, 20, 50, 0, 1, 0};
  const SelfTimes st = ComputeSelfTimes(synthetic);
  EXPECT_DOUBLE_EQ(st.layer_s[static_cast<int>(Layer::kCore)], 40e-9);
  EXPECT_DOUBLE_EQ(st.layer_s[static_cast<int>(Layer::kStorage)], 30e-9);
  EXPECT_DOUBLE_EQ(st.layer_s[static_cast<int>(Layer::kSimgpu)], 30e-9);
  EXPECT_DOUBLE_EQ(st.storage_on_app_s, 30e-9);
  EXPECT_DOUBLE_EQ(ComputeSelfTimes(synthetic, 15).layer_s[0], 30e-9);
}

TEST(PerfbenchStats, Percentile) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 99), 9.9);
}

}  // namespace
}  // namespace perfbench
