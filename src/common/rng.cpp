#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace qc::common {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return splitmix64(s);
}

std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  const std::uint64_t a = splitmix64(s);
  return a ^ rotl(seed, 23);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  QC_CHECK(n > 0);
  // Lemire-style rejection for unbiased bounded integers.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::discrete_total(const std::vector<double>& weights) {
  QC_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    QC_CHECK_MSG(w >= 0.0, "discrete() weights must be non-negative");
    total += w;
  }
  QC_CHECK_MSG(total > 0.0, "discrete() needs at least one positive weight");
  return total;
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  return discrete(weights, discrete_total(weights));
}

std::size_t Rng::discrete(const std::vector<double>& weights, double total) {
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bucket
}

Rng Rng::split(std::uint64_t salt) const {
  std::uint64_t sm = s_[0] ^ rotl(s_[3], 13) ^ (salt * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  return Rng(splitmix64(sm));
}

}  // namespace qc::common
