// Shared vocabulary of the benchmark: run options, the metric ledger a
// workload fills, small statistics helpers and the seeded generator.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;             ///< self-test sizes: short passes
  std::string out_dir;           ///< where the traced run writes its spans
  std::int64_t plant_mismatch = -1;  ///< self-test: corrupt one expectation
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `e2e` holds the untraced end-to-end
/// metrics, `layer` the traced per-layer metrics; `lines` is the human
/// report printed above the result line.
struct WorkloadResult {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> lines;
};

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

/// SplitMix64: the workload input generator. Inputs depend on the seed only.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
  bool chance(double p) noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t s_;
};

/// FNV-1a fold of modeled quantities: two passes over the same inputs must
/// produce the same digest (the modeled clock is deterministic).
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Repeat `pass(i)` until `seconds` of real time have elapsed (at least
/// `min_passes` times). Returns the number of passes run.
template <typename Pass>
unsigned repeat_for(double seconds, unsigned min_passes, Pass&& pass) {
  const std::uint64_t t0 = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  unsigned n = 0;
  while (n < min_passes || now_ns() - t0 < budget) {
    if (!pass(n)) break;
    ++n;
  }
  return n;
}

double ratio(double num, double den) noexcept;

/// "label min q1 median q3 max (n)" of `v`: the spread behind a median.
std::string spread_line(const std::string& label, const std::vector<double>& v);

}  // namespace perfbench
