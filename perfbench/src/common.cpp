#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) noexcept {
  return den != 0.0 ? num / den : 0.0;
}

std::string spread_line(const std::string& label, const std::vector<double>& v) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %s min %.4g q1 %.4g median %.4g q3 %.4g max %.4g (n=%zu)",
                label.c_str(), quantile(v, 0.0), quantile(v, 0.25),
                quantile(v, 0.5), quantile(v, 0.75), quantile(v, 1.0), v.size());
  return buf;
}

}  // namespace perfbench
