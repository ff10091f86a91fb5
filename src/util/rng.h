// Deterministic random number generation for workload synthesis and
// placement decisions. Every stochastic component of the library takes an
// explicit Rng so that experiments are reproducible from a single seed.
#ifndef CORRAL_UTIL_RNG_H_
#define CORRAL_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace corral {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi);

  // Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  // Standard normal scaled to (mean, stddev). Requires stddev >= 0; at 0 it
  // returns mean and still consumes the draws of a standard normal.
  double normal(double mean, double stddev);

  // Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  // Exponential with the given mean (not rate). Requires mean > 0.
  double exponential(double mean);

  // Bernoulli trial with probability p of returning true.
  bool chance(double p);

  // Returns a uniformly random element index for a container of `size`
  // elements. Requires size > 0.
  std::size_t index(std::size_t size);

  // Samples `count` distinct values from [0, size). Requires count <= size.
  std::vector<std::size_t> sample_without_replacement(std::size_t size,
                                                      std::size_t count);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[index(i)]);
    }
  }

  // Derives an independent generator; useful for giving each module its own
  // stream so adding draws in one module does not perturb another.
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace corral

#endif  // CORRAL_UTIL_RNG_H_
