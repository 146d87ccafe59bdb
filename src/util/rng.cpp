#include "util/rng.h"

#include <cmath>

namespace gam::util {

namespace {
uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

uint64_t fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::string_view name) const {
  uint64_t mix = s_[0] ^ rotl(s_[2], 17) ^ fnv1a(name);
  return Rng(mix);
}

Rng Rng::substream(uint64_t seed, std::string_view name) { return Rng(seed).fork(name); }

uint64_t Rng::next() {
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t Rng::uniform(uint64_t n) {
  // Rejection sampling to remove modulo bias.
  const uint64_t limit = ~0ULL - (~0ULL % n);
  uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % n;
}

int64_t Rng::uniform_int(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(uniform(static_cast<uint64_t>(hi - lo + 1)));
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform01();
  double u2 = uniform01();
  if (u1 < 1e-300) u1 = 1e-300;
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double lambda) {
  double u = uniform01();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / lambda;
}

int Rng::positive_count(double mean) {
  if (mean <= 1.0) return 1;
  return 1 + static_cast<int>(exponential(1.0 / (mean - 1.0)));
}

size_t Rng::weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0 ? w : 0);
  return weighted(weights, total);
}

size_t Rng::weighted(const std::vector<double>& weights, double total) {
  if (total <= 0.0) return weights.size();
  double r = uniform01() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0) continue;
    r -= weights[i];
    if (r <= 0) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::sample_indices(size_t n, size_t k) {
  if (k > n) k = n;
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: the first k slots end up uniformly sampled.
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + uniform(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace gam::util
