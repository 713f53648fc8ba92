#ifndef DSPOT_COMMON_RANDOM_H_
#define DSPOT_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace dspot {

/// SplitMix64 finalizer (Steele, Lea & Flood 2014): bijectively mixes a
/// 64-bit value so that consecutive inputs map to decorrelated outputs.
/// Used to derive independent child seeds for parallel tasks; see
/// Random::Child.
uint64_t SplitMix64(uint64_t x);

/// Deterministic, seedable random source used by the synthetic-data
/// generators and the randomized tests. Wraps std::mt19937_64 so every
/// experiment in the repository is reproducible from its seed.
///
/// THREAD SAFETY: a Random instance is single-threaded — concurrent draws
/// from one engine are a data race *and* make the stream depend on thread
/// interleaving, destroying reproducibility. Parallel code must never
/// share an engine; instead each task derives its own child generator
/// with Child(index), whose seed (`seed ^ SplitMix64(index)`) depends
/// only on the parent seed and the task index, never on scheduling order.
class Random {
 public:
  /// Constructs a generator from an explicit seed. The default seed is
  /// arbitrary but fixed, so default-constructed generators are
  /// reproducible too.
  explicit Random(uint64_t seed = 0x5eedcafeULL)
      : seed_(seed), engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal draw scaled to N(mean, stddev^2).
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// Poisson draw with the given mean; returns 0 for non-positive means.
  int64_t Poisson(double mean);

  /// Bernoulli draw with probability `p` of returning true.
  bool Bernoulli(double p);

  /// A vector of `n` i.i.d. Gaussian draws.
  std::vector<double> GaussianVector(size_t n, double mean, double stddev);

  /// A child generator for parallel (or order-independent) task `index`,
  /// seeded with `seed ^ SplitMix64(index)`. Children of distinct indices
  /// are decorrelated, and a child's stream is a pure function of
  /// (parent seed, index) — independent of how many draws the parent or
  /// sibling tasks have consumed.
  Random Child(uint64_t index) const {
    return Random(seed_ ^ SplitMix64(index));
  }

  /// The seed this engine was constructed (or last Reset) with.
  uint64_t seed() const { return seed_; }

  /// Re-seeds the underlying engine.
  void Reset(uint64_t seed) {
    seed_ = seed;
    engine_.seed(seed);
  }

 private:
  uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace dspot

#endif  // DSPOT_COMMON_RANDOM_H_
