// Bandwidth-model decorator for object stores, plus factory helpers that
// bind a store to the simulated node's NVMe drives or the global PFS uplink,
// and the one opener that maps a tier spec's durable backend to a store.
// Charging happens *during* the operation (interleaved per chunk at the
// limiter level), so concurrent flushes and prefetches share drive bandwidth
// the way the paper's evaluation exercises it.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "simgpu/topology.hpp"
#include "storage/object_store.hpp"

namespace ckpt::storage {

class ThrottledStore final : public ObjectStore {
 public:
  using ChargeFn = std::function<void(const ObjectKey&, std::uint64_t)>;

  ThrottledStore(std::shared_ptr<ObjectStore> inner, ChargeFn on_write,
                 ChargeFn on_read)
      : inner_(std::move(inner)),
        on_write_(std::move(on_write)),
        on_read_(std::move(on_read)) {}

  util::Status Put(const ObjectKey& key, sim::ConstBytePtr data,
                   std::uint64_t size) override {
    if (on_write_) on_write_(key, size);
    return inner_->Put(key, data, size);
  }

  util::Status Get(const ObjectKey& key, sim::BytePtr dst,
                   std::uint64_t size) override {
    auto object_size = inner_->Size(key);
    if (!object_size.ok()) return object_size.status();
    if (on_read_) on_read_(key, *object_size);
    return inner_->Get(key, dst, size);
  }

  [[nodiscard]] util::StatusOr<std::uint64_t> Size(const ObjectKey& key) const override {
    return inner_->Size(key);
  }
  [[nodiscard]] bool Exists(const ObjectKey& key) const override {
    return inner_->Exists(key);
  }
  util::Status Erase(const ObjectKey& key) override { return inner_->Erase(key); }
  [[nodiscard]] std::vector<ObjectKey> Keys() const override { return inner_->Keys(); }
  [[nodiscard]] std::uint64_t TotalBytes() const override {
    return inner_->TotalBytes();
  }
  util::Status GetRange(const ObjectKey& key, std::uint64_t offset,
                        sim::BytePtr dst, std::uint64_t len) override {
    // Ranged reads pay for exactly the bytes they move, not the whole object.
    if (on_read_) on_read_(key, len);
    return inner_->GetRange(key, offset, dst, len);
  }
  [[nodiscard]] bool CollectStats(StoreStats& out) const override {
    return inner_->CollectStats(out);
  }

 private:
  std::shared_ptr<ObjectStore> inner_;
  ChargeFn on_write_;
  ChargeFn on_read_;
};

/// Wraps `inner` with the NVMe drive bandwidth of the drive assigned to each
/// object's producing rank (node-local SSD tier semantics).
std::shared_ptr<ObjectStore> MakeSsdStore(const sim::Topology& topo,
                                          std::shared_ptr<ObjectStore> inner);

/// Wraps `inner` with the global PFS uplink bandwidth.
std::shared_ptr<ObjectStore> MakePfsStore(const sim::Topology& topo,
                                          std::shared_ptr<ObjectStore> inner);

using StoreDecorator =
    std::function<std::shared_ptr<ObjectStore>(std::shared_ptr<ObjectStore>)>;

/// Opens the store a durable tier's backend spec names. "" and "mem" (an
/// in-memory store) and "file=<dir>" (a FileStore) sit behind the NVMe model
/// at durable ordinal 0 and behind the PFS uplink deeper. "s3://<bucket>
/// [?opts]" opens through OpenRemoteBackend with no bandwidth wrapper:
/// RemoteStore charges the fabric itself, so a wrapper would charge the same
/// bytes twice. `decorate`, when set, wraps the raw store inside any
/// bandwidth model (fault injection).
util::StatusOr<std::shared_ptr<ObjectStore>> OpenDurableBackend(
    const sim::Topology& topo, std::string_view backend, int ordinal,
    const StoreDecorator& decorate = {});

/// Validates `backend` with OpenDurableBackend's dispatch; opens nothing.
util::Status CheckDurableBackend(std::string_view backend);

}  // namespace ckpt::storage
