// Shared vocabulary of the checkpoint runtime core.
#pragma once

#include <cstdint>
#include <string_view>

namespace ckpt::core {

/// Checkpoint version number within one process's history (the `ver`
/// argument of VELOC_Checkpoint / VELOC_Restart).
using Version = std::uint64_t;

/// Index of one tier within a core::TierStack, 0 = fastest. The engine's
/// source of truth is the stack, not this alias; it exists so legacy
/// call sites and the default 4-tier mapping below stay readable.
using TierIndex = int;

/// Tiers of the default stack in speed order. GPU and HOST are managed
/// cache buffers; SSD and PFS are durable object stores with enough
/// capacity for the whole history (paper §2 assumptions). For any other
/// stack this enum is only an index alias: `static_cast<Tier>(i)` names
/// position `i`, and TierStack::name() supplies the configured label.
enum class Tier : std::uint8_t {
  kGpu = 0,
  kHost = 1,
  kSsd = 2,
  kPfs = 3,
};

[[nodiscard]] constexpr std::string_view to_string(Tier t) noexcept {
  switch (t) {
    case Tier::kGpu: return "GPU";
    case Tier::kHost: return "HOST";
    case Tier::kSsd: return "SSD";
    case Tier::kPfs: return "PFS";
  }
  return "?";
}

/// Why a cache reservation is being made. Used by the split-cache ablation
/// (§4.1.2 argues for a *shared* space; the ablation quantifies the claim)
/// and by telemetry.
enum class ReservePurpose : std::uint8_t {
  kWrite,     ///< checkpoint request or downward flush staging
  kPrefetch,  ///< upward promotion driven by hints
};

}  // namespace ckpt::core
