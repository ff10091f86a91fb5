// Deterministic random number generation for workload synthesis and
// placement decisions. Every stochastic component of the library takes an
// explicit Rng so that experiments are reproducible from a single seed.
#ifndef CORRAL_UTIL_RNG_H_
#define CORRAL_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <span>

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

// The seed of stream `index` derived from `seed` (splitmix-style stream
// separation): one independent stream per epoch, pipeline, tenant, or
// (epoch, chaos fault kind).
inline std::uint64_t substream(std::uint64_t seed, std::uint64_t index) {
  return seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
}

}  // namespace corral

#endif  // CORRAL_UTIL_RNG_H_
