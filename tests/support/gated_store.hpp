// Test double shared by the engine and integration suites: a pass-through
// ObjectStore whose Put blocks while its gate is closed, whose Get can be
// held at a second gate, and which counts the puts and gets it served.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/object_store.hpp"

namespace ckpt::test_support {

/// Put blocks until the gate opens: freezes a flush pipeline at this store
/// (queue depth > 0, landed bytes frozen) without failing any operation,
/// which is exactly the hang signature the watchdog hunts. Gets and
/// metadata calls pass straight through unless HoldGets() closed the get
/// gate. Constructed with `open`, it is a plain counting wrapper.
class GatedStore : public storage::ObjectStore {
 public:
  explicit GatedStore(std::shared_ptr<storage::ObjectStore> inner,
                      bool open = false)
      : inner_(std::move(inner)), open_(open) {}

  ~GatedStore() override {
    Open();
    ReleaseGets();
  }

  void Open() {
    {
      std::lock_guard lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  util::Status Put(const storage::ObjectKey& key, sim::ConstBytePtr data,
                   std::uint64_t size) override {
    std::unique_lock lk(mu_);
    ++parked_;
    cv_.wait(lk, [this] { return open_; });
    --parked_;
    lk.unlock();
    puts_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Put(key, data, size);
  }
  /// Parks every later Get until ReleaseGets(). Gets count on arrival,
  /// so a parked Get is already in gets().
  void HoldGets() {
    std::lock_guard lk(mu_);
    gets_held_ = true;
  }
  void ReleaseGets() {
    {
      std::lock_guard lk(mu_);
      gets_held_ = false;
    }
    cv_.notify_all();
  }

  util::Status Get(const storage::ObjectKey& key, sim::BytePtr dst,
                   std::uint64_t size) override {
    gets_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock lk(mu_);
      ++gets_of_[key];
      ++gets_parked_;
      cv_.wait(lk, [this] { return !gets_held_; });
      --gets_parked_;
    }
    return inner_->Get(key, dst, size);
  }
  util::StatusOr<std::uint64_t> Size(
      const storage::ObjectKey& key) const override {
    return inner_->Size(key);
  }
  bool Exists(const storage::ObjectKey& key) const override {
    return inner_->Exists(key);
  }
  util::Status Erase(const storage::ObjectKey& key) override {
    return inner_->Erase(key);
  }
  std::vector<storage::ObjectKey> Keys() const override {
    return inner_->Keys();
  }
  std::uint64_t TotalBytes() const override { return inner_->TotalBytes(); }

  /// Puts waiting at the gate right now.
  [[nodiscard]] std::uint64_t parked() const {
    std::lock_guard lk(mu_);
    return parked_;
  }
  /// Gets waiting at the get gate right now.
  [[nodiscard]] std::uint64_t gets_parked() const {
    std::lock_guard lk(mu_);
    return gets_parked_;
  }
  /// Gets issued for `key` so far.
  [[nodiscard]] std::uint64_t gets_of(const storage::ObjectKey& key) const {
    std::lock_guard lk(mu_);
    const auto it = gets_of_.find(key);
    return it == gets_of_.end() ? 0 : it->second;
  }
  /// Puts that passed the gate / Gets issued, so far.
  [[nodiscard]] std::uint64_t puts() const {
    return puts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t gets() const {
    return gets_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<storage::ObjectStore> inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  bool gets_held_ = false;
  std::uint64_t parked_ = 0;
  std::uint64_t gets_parked_ = 0;
  std::map<storage::ObjectKey, std::uint64_t> gets_of_;
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> gets_{0};
};

}  // namespace ckpt::test_support
