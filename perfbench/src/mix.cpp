#include "mix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/xoshiro.hpp"

namespace perfbench {

const char* klass_name(Klass k) {
  switch (k) {
    case Klass::Expo: return "expo";
    case Klass::Stiff: return "stiff";
    case Klass::PhaseType: return "phase_type";
    case Klass::Krylov: return "krylov";
  }
  return "?";
}

const std::vector<Klass>& all_klasses() {
  static const std::vector<Klass> all = {Klass::Expo, Klass::Stiff,
                                         Klass::PhaseType, Klass::Krylov};
  return all;
}

lsm::util::Json MixRequest::to_json() const {
  auto j = lsm::util::Json::object();
  j["verb"] = "sweep";
  j["id"] = id;
  j["model"] = model;
  auto p = lsm::util::Json::object();
  for (const auto& [key, value] : params) {
    if (value.is_text) {
      p[key] = value.text;
    } else {
      p[key] = value.number;
    }
  }
  j["params"] = std::move(p);
  auto grid = lsm::util::Json::array();
  for (const double l : lambdas) grid.push_back(l);
  j["lambdas"] = std::move(grid);
  j["warm"] = false;
  return j;
}

namespace {

using lsm::util::Xoshiro256;

// v rounded to a multiple of 1/scale, as the double nearest that decimal.
double round_to(double v, double step) {
  const double scale = std::round(1.0 / step);
  return std::round(v * scale) / scale;
}

double uniform(Xoshiro256& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.uniform();
}

std::size_t pick(Xoshiro256& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
}

// n points from lo to hi, evenly spaced, each jittered by up to a third
// of the spacing and rounded to 1e-4 (so grids print compactly and stay
// strictly increasing).
std::vector<double> grid(Xoshiro256& rng, std::size_t n, double lo,
                         double hi) {
  std::vector<double> g(n);
  const double step = n > 1 ? (hi - lo) / static_cast<double>(n - 1) : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double jitter = step > 0.0 ? uniform(rng, -step / 3, step / 3) : 0.0;
    g[i] = std::clamp(round_to(lo + step * static_cast<double>(i) + jitter,
                               1e-4),
                      lo, hi);
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (g[i] <= g[i - 1]) g[i] = g[i - 1] + 1e-4;
  }
  return g;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// One cold slot of the template. The model, its discrete parameters and
// the number of λ points are fixed per slot (and the krylov model per
// block), so every seed asks for the same amount of work; `rng` jitters
// the continuous parameters and the grid.
//
// The slots are chosen around the quantiles the benchmark reports. Ordered
// by cost, eight cheap exponential sweeps (2-10 ms) sit below four
// transfer chains (~30 ms) and eight heavier solves above them, so the
// median of cold latency falls inside the transfer cluster and the 90th
// percentile among the Erlang c=20 chains and the sharing Krylov solve
// (~650 ms). A quantile that falls between two models of different cost
// would jump when run-to-run noise reorders them. Per-point overheads
// (cache writes, streaming) vary between runs more than solver time does,
// so the median sits on a solve that outweighs them. The Coxian sweep's
// cost grows steeply with the SCV (5 points: 2 ms at 1.0, 40 ms at 2.9),
// so its SCV is drawn from a narrow range that keeps it above the cluster.
MixRequest cold_slot(std::size_t slot, std::size_t block, Xoshiro256& rng) {
  static constexpr std::size_t kPoints[kColdPerBlock] = {
      4, 5, 5, 4, 6, 3, 4, 6, 5, 5, 5, 5, 4, 4, 3, 3, 3, 5, 10, 1};
  MixRequest r;
  const double lo = round_to(uniform(rng, 0.50, 0.60), 1e-4);
  // 0.9699, not 0.97: the freshness offset added below stays under 1e-4.
  const double hi = round_to(uniform(rng, 0.94, 0.9699), 1e-4);
  // Stiff and phase-type chains cost superlinearly in the top λ, so they
  // stop lower to keep single requests under a second.
  const double hi_heavy = round_to(uniform(rng, 0.88, 0.90), 1e-4);
  switch (slot) {
    // expo: 8 slots, one per exponential-service model.
    case 0:
      r.model = "composed";
      r.params = {{"d", 2.0}, {"B", 1.0}, {"r", round_to(uniform(rng, 0.25, 1.0), 0.01)}};
      break;
    case 1:
      r.model = "multi-choice";
      r.params = {{"d", 2.0}};
      break;
    case 2:
      r.model = "sharing";
      r.params = {{"S", 3.0}};
      break;
    case 3:
      r.model = "repeated";
      r.params = {{"r", round_to(uniform(rng, 0.5, 2.0), 0.01)}};
      break;
    case 4:
      r.model = "preemptive";
      r.params = {{"B", 1.0}, {"T", 2.0}};
      break;
    case 5:
      r.model = "threshold";
      r.params = {{"T", 5.0}};
      break;
    case 6:
      r.model = "multi-steal";
      r.params = {{"k", 2.0}, {"T", 4.0}};
      break;
    case 7:
      r.model = "simple";
      break;
    // stiff: 8 slots.
    case 8: case 9: case 10: case 11:
      r.klass = Klass::Stiff;
      r.model = "transfer";
      r.params = {{"r", round_to(uniform(rng, 0.22, 0.28), 0.01)}, {"T", 4.0}};
      break;
    case 12:
      r.klass = Klass::Stiff;
      r.model = "staged-transfer";
      r.params = {{"r", 0.25}, {"c", 3.0}, {"T", 3.0}};
      break;
    case 13:
      r.klass = Klass::Stiff;
      r.model = "erlang";
      r.params = {{"c", 10.0}};
      break;
    case 14: case 15:
      r.klass = Klass::Stiff;
      r.model = "erlang";
      r.params = {{"c", 20.0}};
      break;
    // phase_type: 3 slots, one per service family.
    case 16:
      r.klass = Klass::PhaseType;
      r.model = "simple";
      r.params = {{"service", "erlang:6"}};
      break;
    case 17:
      r.klass = Klass::PhaseType;
      r.model = "threshold";
      r.params = {{"T", 3.0},
                  {"service", fmt("hyperexp:%.2f", uniform(rng, 2.0, 8.0))}};
      break;
    case 18:
      r.klass = Klass::PhaseType;
      r.model = "sharing";
      r.params = {{"S", 2.0},
                  {"service", fmt("coxian:2,%.2f", uniform(rng, 2.6, 3.0))}};
      break;
    // krylov: one near-critical 10^4-dimensional solve per block, the
    // model alternating between blocks.
    default: {
      r.klass = Klass::Krylov;
      const bool sharing = block % 2 == 1;
      r.model = sharing ? "sharing" : "no-stealing";
      r.params = {{"L", static_cast<double>(9999 - 50 * pick(rng, 0, 4))}};
      if (sharing) r.params["S"] = 2.0;
      r.lambdas = {round_to(uniform(rng, 0.990, 0.995), 1e-4)};
      return r;
    }
  }
  const bool heavy = r.klass != Klass::Expo;
  r.lambdas = grid(rng, kPoints[slot], lo, heavy ? hi_heavy : hi);
  return r;
}

}  // namespace

Script::Script(std::uint64_t seed, unsigned client)
    : seed_(seed), client_(client) {}

const MixRequest& Script::at(std::size_t i) {
  while (requests_.size() <= i) generate_block();
  return requests_[i];
}

void Script::generate_block() {
  lsm::util::SplitMix64 mix(seed_ * 0x9e3779b97f4a7c15ULL +
                            (static_cast<std::uint64_t>(client_) << 32) +
                            blocks_);
  Xoshiro256 rng(mix.next());
  if (requests_.size() + kBlockSize > kMaxRequests) {
    throw lsm::util::Error("serve-mix script longer than " +
                           std::to_string(kMaxRequests) + " requests");
  }
  // A fixed slot order, each cold followed by two hits, with the heavy cold
  // slots (12-19) spread through the block; client 1 runs it half a block
  // out of phase. Only parameters, grids and the replayed colds come from
  // the seed, so seeds change the inputs but not when heavy work arrives.
  static constexpr std::size_t kColdOrder[kColdPerBlock] = {
      0, 14, 8, 1, 16, 2, 13, 9, 3, 17, 4, 15, 10, 5, 12, 18, 11, 6, 7, 19};
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < kColdPerBlock; ++k) {
    const std::size_t c = (k + client_ * kColdPerBlock / 2) % kColdPerBlock;
    order.push_back(kColdOrder[c]);
    for (std::size_t h = 0; h < kHitsPerCold; ++h) {
      order.push_back(kColdPerBlock + k);  // a hit slot
    }
  }
  for (const std::size_t slot : order) {
    const std::size_t index = requests_.size();
    if (slot < kColdPerBlock) {
      MixRequest r = cold_slot(slot, blocks_, rng);
      // Requests ask for cold solves, keyed per point, so a grid is fresh
      // only if no other request of the run uses any of its λ: offset
      // every λ by a step unique to (client, script index), far below the
      // 1e-4 grid resolution.
      const double offset = 1e-8 * static_cast<double>(2 * index + client_ + 1);
      static_assert(2 * kMaxRequests + 2 < 10000);
      for (double& l : r.lambdas) l = round_to(l + offset, 1e-8);
      r.index = index;
      char id[48];
      std::snprintf(id, sizeof id, "c%u-%zu", client_, index);
      r.id = id;
      colds_.push_back(index);
      requests_.push_back(std::move(r));
    } else {
      const std::size_t src = colds_[rng.below(colds_.size())];
      MixRequest r = requests_[src];
      r.index = index;
      r.hit = true;
      r.replay_of = src;
      requests_.push_back(std::move(r));
    }
  }
  ++blocks_;
}

}  // namespace perfbench
