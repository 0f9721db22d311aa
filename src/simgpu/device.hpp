// Simulated GPU device: an HBM-sized host-RAM arena with a first-fit
// suballocator. Allocation pays a modeled cost (HBM allocation bandwidth,
// §4.1.4 of the paper motivates paying it once up front), which the
// checkpoint runtime amortizes by pre-allocating its cache buffer at init.
// The arena is reserved up front but committed range by range: Allocate
// zeroes what it grants, so host pages back only the HBM actually handed out.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "simgpu/types.hpp"
#include "util/rate_limiter.hpp"
#include "util/status.hpp"

namespace ckpt::sim {

class Device {
 public:
  /// `alloc_limiter` models allocation bandwidth; nullptr = free allocation.
  Device(GpuId id, std::uint64_t capacity, util::RateLimiter* alloc_limiter);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Allocates `n` bytes of "HBM" (256-byte aligned), zero-filled. Blocks
  /// for the modeled allocation cost. Fails with kOutOfMemory when no
  /// fragment fits.
  util::StatusOr<BytePtr> Allocate(std::uint64_t n);

  /// Releases a pointer previously returned by Allocate.
  util::Status Free(BytePtr p);

  [[nodiscard]] GpuId id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t used() const;
  [[nodiscard]] std::uint64_t free_bytes() const;
  /// Largest single allocation currently possible (fragmentation probe).
  [[nodiscard]] std::uint64_t largest_free_block() const;

  /// True if `p` points into this device's arena.
  [[nodiscard]] bool Owns(ConstBytePtr p) const noexcept;

  static constexpr std::uint64_t kAlignment = 256;

 private:
  GpuId id_;
  std::uint64_t capacity_;
  util::RateLimiter* alloc_limiter_;
  std::unique_ptr<std::byte[]> arena_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> free_list_;   // offset -> size
  std::map<std::uint64_t, std::uint64_t> allocations_; // offset -> size
};

}  // namespace ckpt::sim
