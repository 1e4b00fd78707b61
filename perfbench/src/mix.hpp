// The serve-mix request generator: one deterministic script per client
// connection, a pure function of (seed, client).
//
// Scripts are built block by block from a fixed template of 20 cold and
// 40 hit slots, so every seed exercises the same class composition (the
// benchmark compares seeds, and an unstratified draw would move the
// percentiles with the class counts). The slot order is fixed too (each
// cold is followed by two hits; client 1 runs half a block out of phase); the seed
// jitters every model parameter and λ grid and picks the replayed colds:
//
//   cold  a fresh (model, params, λ-grid) sweep, 3-10 λ in [0.5, 0.97]:
//         8 expo, 8 stiff, 3 phase_type and 1 krylov slot (one λ in
//         [0.990, 0.995]) per block.
//         Sent with "warm": false, so the daemon solves (and caches) every
//         point cold: its warm continuation misses the 1e-9 gate today
//         (see perfbench/README.md);
//   hit   an exact replay of a cold of the same script that comes earlier
//         in the script. The loop is closed (a client sends its next
//         request only after the previous one finished), so the replayed
//         grid's cold request has always completed: every point of a hit
//         must come back as a cache hit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "util/json.hpp"

namespace perfbench {

enum class Klass { Expo, Stiff, PhaseType, Krylov };

[[nodiscard]] const char* klass_name(Klass k);
[[nodiscard]] const std::vector<Klass>& all_klasses();

struct MixRequest {
  std::size_t index = 0;  ///< position in the client's script
  std::string id;         ///< a hit reuses the id of the cold it replays
  Klass klass = Klass::Expo;
  bool hit = false;
  std::size_t replay_of = 0;  ///< hits: script index of the replayed cold
  std::string model;
  lsm::core::ModelParams params;
  std::vector<double> lambdas;

  /// The protocol line that asks the daemon for this sweep.
  [[nodiscard]] lsm::util::Json to_json() const;
};

/// Slots per template block.
inline constexpr std::size_t kColdPerBlock = 20;
inline constexpr std::size_t kHitsPerCold = 2;
inline constexpr std::size_t kBlockSize = (1 + kHitsPerCold) * kColdPerBlock;
/// Longest script: the per-request λ offsets that keep grids fresh stay
/// below the 1e-4 grid resolution up to here.
inline constexpr std::size_t kMaxRequests = 4960 / kBlockSize * kBlockSize;

class Script {
 public:
  Script(std::uint64_t seed, unsigned client);

  /// The i-th request, generating blocks on demand.
  const MixRequest& at(std::size_t i);

 private:
  void generate_block();

  std::uint64_t seed_;
  unsigned client_;
  std::size_t blocks_ = 0;
  std::vector<MixRequest> requests_;
  std::vector<std::size_t> colds_;  ///< script indices of cold requests
};

}  // namespace perfbench
