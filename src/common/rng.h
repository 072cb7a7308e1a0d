#ifndef SAGED_COMMON_RNG_H_
#define SAGED_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace saged {

/// Deterministic pseudo-random generator (xoshiro256**). A single seed makes
/// every experiment in the repository reproducible bit-for-bit; we avoid
/// std::mt19937 so distributions are identical across standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42);

  /// Raw 64-bit output.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). `n` must be > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with the given mean / stddev.
  double Normal(double mean, double stddev);

  /// Bernoulli trial.
  bool Bernoulli(double p);

  /// Samples an index according to non-negative `weights` (need not sum
  /// to 1). All-zero weights fall back to uniform.
  size_t Weighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n). If k >= n, returns all n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace saged

#endif  // SAGED_COMMON_RNG_H_
