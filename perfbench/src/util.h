// Small helpers shared by the benchmark: its own random generator (so a
// change to the program's datagen cannot change a workload), clocks,
// order statistics and result hashing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MicrosSince(int64_t start_nanos) {
  return static_cast<double>(NowNanos() - start_nanos) / 1e3;
}

/// SplitMix64 finalizer; also the hash combiner for result digests.
inline uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// SplitMix64 stream. Each table / query family draws from its own stream
/// (Rng(Mix(seed, stream_id))) so adding one does not shift the others.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); the modulo bias is below 2^-40 for the n used here.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Standard normal (Box-Muller).
  double Normal() {
    const double u = 1.0 - Uniform();  // (0, 1]
    const double v = Uniform();
    return std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * v);
  }

 private:
  uint64_t state_;
};

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Hash of one numeric cell as the benchmark compares results: integers
/// and doubles by their double value (the tables stay below 2^53), -0.0
/// folded into 0.0, NaN standing for NULL.
inline uint64_t HashNumber(double v) {
  if (std::isnan(v)) return 0x6E756C6Cull;  // "null"
  if (v == 0) v = 0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return Mix(bits, 1);
}

/// Order-insensitive comparisons sort the item lists first.
inline uint64_t Digest(std::vector<uint64_t> items, bool ordered) {
  if (!ordered) std::sort(items.begin(), items.end());
  uint64_t h = items.size();
  for (uint64_t x : items) h = Mix(h, x);
  return h;
}

}  // namespace perfbench
