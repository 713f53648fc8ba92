#include "common/random.h"

#include <algorithm>

namespace dspot {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Random::Uniform() {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(engine_);
}

double Random::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Random::UniformInt(int64_t lo, int64_t hi) {
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Random::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

int64_t Random::Poisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  std::poisson_distribution<int64_t> dist(mean);
  return dist(engine_);
}

bool Random::Bernoulli(double p) {
  std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
  return dist(engine_);
}

std::vector<double> Random::GaussianVector(size_t n, double mean,
                                           double stddev) {
  std::vector<double> out(n);
  for (double& v : out) {
    v = Gaussian(mean, stddev);
  }
  return out;
}

}  // namespace dspot
