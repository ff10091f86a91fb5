#include "util/rng.h"

#include <algorithm>

#include "util/check.h"

namespace corral {

int Rng::uniform_int(int lo, int hi) {
  require(lo <= hi, "uniform_int: lo must be <= hi");
  return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "uniform: lo must be <= hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  require(stddev >= 0, "normal: stddev must be non-negative");
  // Scaled by hand: std::normal_distribution requires stddev > 0. libstdc++
  // returns z * stddev + mean from the same draws.
  return mean + stddev * std::normal_distribution<double>()(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

double Rng::exponential(double mean) {
  require(mean > 0, "exponential: mean must be positive");
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

bool Rng::chance(double p) {
  return std::bernoulli_distribution(std::clamp(p, 0.0, 1.0))(engine_);
}

std::size_t Rng::index(std::size_t size) {
  require(size > 0, "index: size must be positive");
  return std::uniform_int_distribution<std::size_t>(0, size - 1)(engine_);
}

Rng Rng::fork() { return Rng(engine_()); }

}  // namespace corral
