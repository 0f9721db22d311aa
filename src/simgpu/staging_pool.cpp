#include "simgpu/staging_pool.hpp"

#include <algorithm>

namespace ckpt::sim {

PinnedStagingPool::PinnedStagingPool(const Topology& topo, int node)
    : topo_(topo), node_(node) {}

PinnedStagingPool::Lease::~Lease() { pool_->Return(std::move(arena_)); }

PinnedStagingPool::Lease PinnedStagingPool::Acquire(std::uint64_t size) {
  std::unique_ptr<PinnedArena> replaced;
  std::uint64_t grow_to = size;
  {
    std::lock_guard lock(mu_);
    auto best = free_.end();
    auto largest = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      const std::uint64_t have = (*it)->size();
      if (have >= size && (best == free_.end() || have < (*best)->size())) {
        best = it;
      }
      if (largest == free_.end() || have > (*largest)->size()) largest = it;
    }
    if (best != free_.end()) {
      std::unique_ptr<PinnedArena> arena = std::move(*best);
      free_.erase(best);
      return Lease(*this, std::move(arena));
    }
    if (largest != free_.end()) {
      grow_to = std::max(size, 2 * (*largest)->size());
      replaced = std::move(*largest);
      free_.erase(largest);
    }
    ++registrations_;
    registered_bytes_ += grow_to;
  }
  replaced.reset();
  return Lease(*this, std::make_unique<PinnedArena>(topo_, node_, grow_to));
}

void PinnedStagingPool::Return(std::unique_ptr<PinnedArena> arena) {
  std::lock_guard lock(mu_);
  free_.push_back(std::move(arena));
}

std::uint64_t PinnedStagingPool::registrations() const {
  std::lock_guard lock(mu_);
  return registrations_;
}

std::uint64_t PinnedStagingPool::registered_bytes() const {
  std::lock_guard lock(mu_);
  return registered_bytes_;
}

}  // namespace ckpt::sim
