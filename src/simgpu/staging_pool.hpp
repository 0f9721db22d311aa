// Pinned staging pool: bounce buffers registered once, lent per transfer.
//
// A transfer between device memory and a durable store that bypasses the
// pinned cache tiers still needs pinned host memory to bounce through.
// Registering a fresh PinnedArena per transfer pays size / pinned_alloc_bw
// on the caller's thread every time — the cost the paper avoids by pinning
// once at init (§4.1.4). The pool keeps its buffers and lends them out, so
// the registration cost is paid only when no free buffer is big enough.
//
// Locking: `mu_` is a leaf lock. It guards the free list and the counters
// only; registration (the modelled pinning sleep) and every copy through a
// leased buffer run without it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "simgpu/pinned.hpp"
#include "simgpu/topology.hpp"
#include "simgpu/types.hpp"

namespace ckpt::sim {

class PinnedStagingPool {
 public:
  PinnedStagingPool(const Topology& topo, int node);

  PinnedStagingPool(const PinnedStagingPool&) = delete;
  PinnedStagingPool& operator=(const PinnedStagingPool&) = delete;

  /// Exclusive use of one pinned buffer of at least the requested size.
  /// Hands the buffer back to the pool when destroyed.
  class Lease {
   public:
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    [[nodiscard]] BytePtr data() noexcept { return arena_->data(); }
    [[nodiscard]] std::uint64_t size() const noexcept { return arena_->size(); }

   private:
    friend class PinnedStagingPool;
    Lease(PinnedStagingPool& pool, std::unique_ptr<PinnedArena> arena)
        : pool_(&pool), arena_(std::move(arena)) {}

    PinnedStagingPool* pool_;
    std::unique_ptr<PinnedArena> arena_;
  };

  /// Lends a buffer of at least `size` bytes: the smallest free one that
  /// fits. When none fits, registers a new buffer on the calling thread
  /// (paying the modelled pinning cost) of max(size, twice the largest free
  /// buffer), which replaces that free buffer. The pool therefore never
  /// holds more buffers than the peak number of concurrent leases, and a
  /// stream of sizes that grows within 2x re-registers at most once.
  [[nodiscard]] Lease Acquire(std::uint64_t size);

  /// Buffers registered so far (first registrations and growths).
  [[nodiscard]] std::uint64_t registrations() const;
  /// Total bytes those registrations pinned.
  [[nodiscard]] std::uint64_t registered_bytes() const;

 private:
  void Return(std::unique_ptr<PinnedArena> arena);

  const Topology& topo_;
  const int node_;
  mutable std::mutex mu_;  // leaf: never held across a registration or copy
  std::vector<std::unique_ptr<PinnedArena>> free_;
  std::uint64_t registrations_ = 0;
  std::uint64_t registered_bytes_ = 0;
};

}  // namespace ckpt::sim
