// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (trajectory simulator, synthetic
// calibration data, optimizer restarts, shot sampling) draws from an Rng
// seeded explicitly by the caller, so experiments are bit-reproducible.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 so that nearby seeds give unrelated streams.
#pragma once

#include <cstdint>
#include <vector>

namespace qc::common {

/// splitmix64 step; used for seeding and cheap hash-like mixing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Order-dependent 64-bit hash combiner (splitmix64-mixed). Used for content
/// fingerprints (circuits, devices, noise options) that key the execution
/// engine's caches.
std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v);

/// Counter-based stream derivation: an independent child seed for stream
/// `stream` of a parent `seed`. Deterministic and order-free, so per-shot
/// RNG streams can be created from any thread in any order and still yield
/// bit-identical experiment results for every thread count.
std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream);

/// xoshiro256** PRNG with explicit seeding and stream splitting.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// UniformRandomBitGenerator interface (usable with <random> distributions).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);
  /// Standard normal via Box–Muller (cached second value).
  double normal();
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Bernoulli trial.
  bool bernoulli(double p);
  /// Samples an index from an unnormalized non-negative weight vector:
  /// discrete(weights, discrete_total(weights)).
  std::size_t discrete(const std::vector<double>& weights);
  /// The same draw with the weights' sum precomputed by discrete_total, so a
  /// caller drawing many times from one weight vector checks and sums it once.
  std::size_t discrete(const std::vector<double>& weights, double total);
  /// Sum of a non-empty weight vector in index order. Throws common::Error
  /// on a negative (or NaN) weight or a non-positive sum.
  static double discrete_total(const std::vector<double>& weights);

  /// Derives an independent child stream; deterministic in (parent seed, salt).
  Rng split(std::uint64_t salt) const;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace qc::common
