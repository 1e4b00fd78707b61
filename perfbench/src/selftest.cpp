// Self-tests of the benchmark's own rules (run by perfbench/run.py before
// every measurement, and on their own with `run.py --selftest`):
//   - the median and the tail-percentile rule with its sample count;
//   - closed-loop generator determinism: the same seed gives the same
//     request sequence and hit share, another seed a different sequence;
//   - the hit-replay rule: a grid is replayed only by a later request of
//     the same closed-loop client, i.e. after its cold request completed.
#include <cmath>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "mix.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

void test_stats() {
  using namespace perfbench;
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
  expect(std::isnan(median({})), "median of nothing is NaN");
  expect(percentile(iota(100), 90.0) == 90.0, "nearest-rank p90 of 1..100");
  expect(percentile(iota(1000), 99.0) == 990.0, "nearest-rank p99 of 1..1000");
  // The tail climbs the ladder only while >= 10 samples lie beyond.
  const struct {
    std::size_t n;
    double pct;
    std::size_t beyond;
  } cases[] = {{9, 50.0, 4},     {20, 50.0, 10},   {39, 50.0, 19},
               {40, 75.0, 10},   {99, 75.0, 24},   {100, 90.0, 10},
               {999, 90.0, 99},  {1000, 99.0, 10}, {9999, 99.0, 99},
               {10000, 99.9, 10}};
  for (const auto& c : cases) {
    const Tail t = tail(iota(c.n));
    expect(t.pct == c.pct && t.n == c.n && t.beyond == c.beyond,
           "tail rule at n=" + std::to_string(c.n) + ": got p" +
               std::to_string(t.pct) + " beyond " + std::to_string(t.beyond));
    expect(t.value == percentile(iota(c.n), t.pct), "tail value is the percentile");
  }
}

std::vector<std::string> dump(perfbench::Script& s, std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = s.at(i);
    out.push_back(r.to_json().dump() + (r.hit ? " hit" : " cold"));
  }
  return out;
}

void test_generator_determinism() {
  using namespace perfbench;
  constexpr std::size_t n = 5 * kBlockSize;
  for (const unsigned client : {0u, 1u}) {
    Script a(7, client), b(7, client), c(8, client);
    const auto da = dump(a, n), db = dump(b, n), dc = dump(c, n);
    expect(da == db, "same seed, same sequence (client " + std::to_string(client) + ")");
    expect(da != dc, "another seed, another sequence");
    // Generating lazily in a different order gives the same requests.
    Script d(7, client);
    (void)d.at(n - 1);
    expect(dump(d, n) == da, "sequence independent of generation order");
    std::size_t hits = 0;
    std::map<Klass, std::size_t> per_class;
    for (std::size_t i = 0; i < n; ++i) {
      hits += a.at(i).hit ? 1 : 0;
      if (!a.at(i).hit) ++per_class[a.at(i).klass];
    }
    expect(hits * (1 + kHitsPerCold) == n * kHitsPerCold,
           "hit share is exactly two thirds per block");
    expect(per_class[Klass::Expo] == 40 && per_class[Klass::Stiff] == 40 &&
               per_class[Klass::PhaseType] == 15 && per_class[Klass::Krylov] == 5,
           "class composition is fixed per block");
  }
  Script x(7, 0), y(7, 1);
  expect(dump(x, kBlockSize) != dump(y, kBlockSize), "clients get distinct scripts");
}

void test_hit_replay_rule() {
  using namespace perfbench;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const unsigned client : {0u, 1u}) {
      Script s(seed, client);
      expect(!s.at(0).hit, "a script opens with a cold request");
      for (std::size_t i = 0; i < 3 * kBlockSize; ++i) {
        const auto& r = s.at(i);
        const bool heavy_or_krylov = r.klass == Klass::Krylov;
        for (std::size_t k = 1; k < r.lambdas.size(); ++k) {
          expect(r.lambdas[k] > r.lambdas[k - 1], "grid strictly increasing");
        }
        if (heavy_or_krylov) {
          expect(r.lambdas.front() >= 0.99, "krylov grids are near-critical");
        } else {
          expect(r.lambdas.size() >= 3 && r.lambdas.size() <= 10,
                 "3-10 λ per cold grid");
          expect(r.lambdas.front() >= 0.5 && r.lambdas.back() <= 0.97,
                 "λ within [0.5, 0.97]");
        }
        if (!r.hit) continue;
        expect(r.replay_of < i, "a hit replays an earlier request of its client");
        const auto& cold = s.at(r.replay_of);
        expect(!cold.hit, "a hit replays a cold request");
        expect(cold.id == r.id && cold.model == r.model &&
                   cold.params == r.params && cold.lambdas == r.lambdas,
               "a hit repeats its cold grid exactly");
      }
    }
    // Cold grids are fresh across both clients of a run: points are cached
    // under cold per-point keys, so no λ may appear in two cold grids.
    std::map<double, std::string> seen;
    for (const unsigned client : {0u, 1u}) {
      Script s(seed, client);
      for (std::size_t i = 0; i < 10 * kBlockSize; ++i) {
        const auto& r = s.at(i);
        if (r.hit) continue;
        for (const double l : r.lambdas) {
          expect(seen.emplace(l, r.id).second,
                 "every cold λ is used once (" + r.id + ")");
        }
      }
    }
  }
  // Past kMaxRequests the freshness offsets would reach the grid
  // resolution, so the script refuses to grow.
  Script s(1, 1);
  (void)s.at(kMaxRequests - 1);
  bool refused = false;
  try {
    (void)s.at(kMaxRequests);
  } catch (const std::exception&) {
    refused = true;
  }
  expect(refused, "scripts stop at kMaxRequests");
}

}  // namespace

int main() {
  test_stats();
  test_generator_determinism();
  test_hit_replay_rule();
  if (g_failures > 0) {
    std::cerr << g_failures << " selftest check(s) failed\n";
    return 1;
  }
  std::cout << "selftest: ok\n";
  return 0;
}
