#include "bench_lib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <set>

#include "rtm/trace.hpp"
#include "rtm/workload.hpp"
#include "simgpu/copy.hpp"
#include "storage/aggregating_store.hpp"
#include "storage/mem_store.hpp"
#include "storage/remote_store.hpp"
#include "storage/throttled_store.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace storage = ckpt::storage;
namespace util = ckpt::util;

// --- Seeded inputs ---------------------------------------------------------

std::vector<RankInputs> MakeInputs(std::uint64_t seed, int num_ranks,
                                   int num_ckpts, Order order) {
  ckpt::rtm::TraceConfig trace;
  trace.num_snapshots = num_ckpts;
  trace.seed = util::DeriveSeed(seed, 1);
  const ckpt::rtm::TraceModel model(trace);

  ckpt::rtm::ShotConfig shot;
  shot.num_ckpts = num_ckpts;
  shot.read_order = order == Order::kReverse ? ckpt::rtm::ReadOrder::kReverse
                                             : ckpt::rtm::ReadOrder::kIrregular;
  shot.seed = util::DeriveSeed(seed, 2);

  std::vector<RankInputs> inputs(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    RankInputs& in = inputs[static_cast<std::size_t>(r)];
    in.sizes = model.GenerateShot(static_cast<std::uint64_t>(r));
    in.order = ckpt::rtm::MakeRestoreOrder(shot, r);
  }
  return inputs;
}

// --- Spans -----------------------------------------------------------------

namespace {

const char* LayerName(Layer l) noexcept {
  switch (l) {
    case Layer::kSimgpu: return "simgpu";
    case Layer::kCore: return "core";
    case Layer::kStorage: return "storage";
  }
  return "?";
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// A copy of `name` that lives until the process exits, for span names built
/// at run time (spans outlive the stores that recorded them).
const char* InternSpanName(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> names;  // node-based: c_str() stays valid
  std::lock_guard lock(mu);
  return names.insert(name).first->c_str();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Start() {
  std::lock_guard lock(mu_);
  bufs_.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_relaxed); }

Tracer::ThreadBuf& Tracer::Local() {
  thread_local std::uint64_t local_generation = 0;
  thread_local ThreadBuf* local = nullptr;
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (local == nullptr || local_generation != gen) {
    std::lock_guard lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    local = bufs_.back().get();
    local->thread = static_cast<std::uint32_t>(bufs_.size() - 1);
    local_generation = gen;
  }
  return *local;
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard lock(mu_);
  std::vector<Span> all;
  for (const auto& buf : bufs_) {
    const auto base = static_cast<std::int32_t>(all.size());
    for (Span s : buf->spans) {
      if (s.parent >= 0) s.parent += base;
      all.push_back(s);
    }
  }
  return all;
}

ScopedSpan::ScopedSpan(const char* name, Layer layer, int rank,
                       std::int64_t version) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  buf_ = &tracer.Local();
  index_ = static_cast<std::int32_t>(buf_->spans.size());
  Span s;
  s.name = name;
  s.layer = layer;
  s.rank = rank;
  s.version = version;
  s.parent = buf_->open.empty() ? -1 : buf_->open.back();
  s.thread = buf_->thread;
  s.cpu_ns = ThreadCpuNs();  // start reading; the destructor turns it into a delta
  s.start_ns = util::NowNs();
  buf_->spans.push_back(s);
  buf_->open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) return;
  Span& s = buf_->spans[static_cast<std::size_t>(index_)];
  s.end_ns = util::NowNs();
  s.cpu_ns = ThreadCpuNs() - s.cpu_ns;
  buf_->open.pop_back();
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans, std::int64_t since_ns) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.start_ns >= since_ns) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.start_ns < since_ns) continue;
    const double self_s =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    out.layer_s[static_cast<int>(s.layer)] += self_s;
    if (s.layer != Layer::kStorage) continue;
    std::int32_t root = static_cast<std::int32_t>(i);
    while (spans[static_cast<std::size_t>(root)].parent >= 0) {
      root = spans[static_cast<std::size_t>(root)].parent;
    }
    if (spans[static_cast<std::size_t>(root)].layer == Layer::kCore) {
      out.storage_on_app_s += self_s;
    }
  }
  return out;
}

std::string SpansToChromeJson(const std::vector<Span>& spans, int pid) {
  std::string out = "{\"traceEvents\":[";
  char buf[128];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";  // span names are plain identifiers
    out += s.name;
    out += '"';
    std::snprintf(buf, sizeof buf,
                  ",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,",
                  LayerName(s.layer), static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\"pid\":%d,\"tid\":%u,\"args\":{\"rank\":%d,\"version\":%lld,"
                  "\"cpu_us\":%.3f}}",
                  pid, s.thread, s.rank, static_cast<long long>(s.version),
                  static_cast<double>(s.cpu_ns) * 1e-3);
    out += buf;
  }
  out += "]}\n";
  return out;
}

// --- Storage ---------------------------------------------------------------

StoreLedger::StoreLedger(const std::string& label)
    : put_span_(InternSpanName("storage." + label + ".put")),
      get_span_(InternSpanName("storage." + label + ".get")) {}

void StoreLedger::RecordPut(const storage::ObjectKey& key, std::int64_t end_ns) {
  std::lock_guard lock(mu_);
  put_keys_.push_back(key);
  if (end_ns > last_put_end_ns_.load(std::memory_order_relaxed)) {
    last_put_end_ns_.store(end_ns, std::memory_order_release);
  }
}

std::vector<storage::ObjectKey> StoreLedger::put_keys() const {
  std::lock_guard lock(mu_);
  return put_keys_;
}

namespace {

/// Adds one finished call to `op`; returns the call's end time.
std::int64_t Account(OpLedger& op, std::int64_t start_ns, std::uint64_t bytes,
                     bool ok) {
  const std::int64_t end_ns = util::NowNs();
  op.count.fetch_add(1, std::memory_order_relaxed);
  op.busy_ns.fetch_add(static_cast<std::uint64_t>(end_ns - start_ns),
                       std::memory_order_relaxed);
  if (ok) {
    op.bytes.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    op.failed.fetch_add(1, std::memory_order_relaxed);
  }
  return end_ns;
}

}  // namespace

TimedStore::TimedStore(std::shared_ptr<storage::ObjectStore> inner,
                       std::shared_ptr<StoreLedger> ledger)
    : inner_(std::move(inner)), ledger_(std::move(ledger)) {}

util::Status TimedStore::Put(const storage::ObjectKey& key,
                             ckpt::sim::ConstBytePtr data, std::uint64_t size) {
  const std::int64_t start_ns = util::NowNs();
  util::Status st = util::OkStatus();
  {
    const ScopedSpan span(ledger_->put_span(), Layer::kStorage, key.rank,
                          static_cast<std::int64_t>(key.version));
    st = inner_->Put(key, data, size);
  }
  const std::int64_t end_ns = Account(ledger_->put, start_ns, size, st.ok());
  if (st.ok()) ledger_->RecordPut(key, end_ns);
  return st;
}

util::Status TimedStore::Get(const storage::ObjectKey& key,
                             ckpt::sim::BytePtr dst, std::uint64_t size) {
  const std::int64_t start_ns = util::NowNs();
  util::Status st = util::OkStatus();
  {
    const ScopedSpan span(ledger_->get_span(), Layer::kStorage, key.rank,
                          static_cast<std::int64_t>(key.version));
    st = inner_->Get(key, dst, size);
  }
  (void)Account(ledger_->get, start_ns, size, st.ok());
  return st;
}

util::Status TimedStore::GetRange(const storage::ObjectKey& key,
                                  std::uint64_t offset, ckpt::sim::BytePtr dst,
                                  std::uint64_t len) {
  const std::int64_t start_ns = util::NowNs();
  util::Status st = util::OkStatus();
  {
    const ScopedSpan span(ledger_->get_span(), Layer::kStorage, key.rank,
                          static_cast<std::int64_t>(key.version));
    st = inner_->GetRange(key, offset, dst, len);
  }
  (void)Account(ledger_->get, start_ns, len, st.ok());
  return st;
}

ckpt::core::TierStoreFactory MakeTimedStoreFactory(
    const ckpt::sim::Topology& topo, LedgerMap& ledgers) {
  return [&topo, &ledgers](const std::string& tier, const std::string& backend,
                           int ordinal)
             -> util::StatusOr<std::shared_ptr<storage::ObjectStore>> {
    const auto timed = [&ledgers](std::shared_ptr<storage::ObjectStore> inner,
                                  const std::string& label) {
      auto ledger = std::make_shared<StoreLedger>(label);
      ledgers[label] = ledger;
      return std::make_shared<TimedStore>(std::move(inner), std::move(ledger));
    };
    if (backend.rfind("s3://", 0) == 0) {
      // The composition of storage::OpenRemoteBackend, decorated.
      auto opts = storage::RemoteOptions::Parse(backend);
      if (!opts.ok()) return opts.status();
      std::shared_ptr<storage::ObjectStore> store =
          std::make_shared<storage::RemoteStore>(*opts, &topo);
      if (opts->group_members > 1 || opts->group_bytes > 0) {
        storage::AggregatingStore::Options agg;
        agg.group_members = opts->group_members > 1 ? opts->group_members : 0;
        agg.group_bytes = opts->group_bytes;
        agg.deadline = opts->group_deadline;
        store = std::make_shared<storage::AggregatingStore>(
            timed(std::move(store), tier + ".landed"), agg);
      }
      return std::shared_ptr<storage::ObjectStore>(timed(std::move(store), tier));
    }
    if (!backend.empty() && backend != "mem") {
      return util::InvalidArgument("tier '" + tier +
                                   "': the benchmark builds only 'mem' and "
                                   "'s3://' backends");
    }
    // The composition of storage::MakeSsdStore / MakePfsStore, with the
    // limiter charge timed as a simgpu span.
    storage::ThrottledStore::ChargeFn charge;
    if (ordinal == 0) {
      charge = [&topo](const storage::ObjectKey& key, std::uint64_t n) {
        const ScopedSpan span("simgpu.nvme", Layer::kSimgpu, key.rank,
                              static_cast<std::int64_t>(key.version));
        ckpt::sim::ChargeNvme(topo, key.rank, n);
      };
    } else {
      charge = [&topo](const storage::ObjectKey& key, std::uint64_t n) {
        const ScopedSpan span("simgpu.pfs", Layer::kSimgpu, key.rank,
                              static_cast<std::int64_t>(key.version));
        ckpt::sim::ChargePfs(topo, n);
      };
    }
    auto throttled = std::make_shared<storage::ThrottledStore>(
        std::make_shared<storage::MemStore>(), charge, charge);
    return std::shared_ptr<storage::ObjectStore>(timed(std::move(throttled), tier));
  };
}

// --- Statistics ------------------------------------------------------------

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace perfbench
