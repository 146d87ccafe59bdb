// Deterministic random-number generation for the simulation substrate.
//
// Everything in the suite that is stochastic draws from an Rng seeded
// explicitly, so whole-world generation and every experiment are exactly
// reproducible run-to-run. The core generator is xoshiro256** (public
// domain reference algorithm by Blackman & Vigna), chosen over std::mt19937
// for speed and a compact, stable state that survives serialization.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace gam::util {

class Rng {
 public:
  /// Seeds via splitmix64 expansion of `seed`, so nearby seeds decorrelate.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derive an independent stream for a named subcomponent. Identical
  /// (parent seed, name) pairs always produce identical child streams.
  Rng fork(std::string_view name) const;

  /// The determinism contract for parallel work: the canonical stream for a
  /// named unit of a study (a country's session, its Atlas repair, its
  /// analysis). Defined as Rng(seed).fork(name), so it depends only on the
  /// (seed, name) pair — never on execution order, thread count, or how many
  /// draws happened elsewhere — and a parallel run is byte-identical to a
  /// serial one.
  static Rng substream(uint64_t seed, std::string_view name);

  /// Next raw 64-bit value.
  uint64_t next();

  /// Uniform in [0, n). n must be > 0.
  uint64_t uniform(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t uniform_int(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with probability p.
  bool chance(double p);

  /// Standard normal via Box-Muller (no cached spare: keeps state minimal).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal with given underlying normal parameters.
  double lognormal(double mu, double sigma);

  /// Exponential with rate lambda.
  double exponential(double lambda);

  /// Geometric-like positive count: 1 + floor(Exp(1/mean-1)); mean >= 1.
  int positive_count(double mean);

  /// Index drawn from unnormalized weights. Returns weights.size() on all-zero.
  size_t weighted(const std::vector<double>& weights);

  /// The same draw with the total precomputed: `total` must be the in-order
  /// sum of the positive entries of `weights`, exactly as the one-argument
  /// form computes it, so both consume the stream alike and return the same
  /// index. Lets a caller drawing many times from one vector sum it once.
  size_t weighted(const std::vector<double>& weights, double total);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = uniform(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n). k is clamped to n.
  std::vector<size_t> sample_indices(size_t n, size_t k);

  /// Pick one element (by const ref) uniformly. v must be non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[uniform(v.size())];
  }

 private:
  uint64_t s_[4];
};

/// FNV-1a hash of a string; used for stable name-derived sub-seeds.
uint64_t fnv1a(std::string_view s);

}  // namespace gam::util
