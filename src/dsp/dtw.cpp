#include "dsp/dtw.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace iotsim::dsp {

double euclidean(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sq += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(sq);
}

double dtw_distance(const FeatureSeq& a, const FeatureSeq& b) {
  if (a.empty() || b.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t n = a.size(), m = b.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Rolling two-row DP over the (n+1) x (m+1) cost matrix.
  std::vector<double> prev(m + 1, kInf), curr(m + 1, kInf);
  prev[0] = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = kInf;
    for (std::size_t j = 1; j <= m; ++j) {
      const double d = euclidean(a[i - 1], b[j - 1]);
      curr[j] = d + std::min({prev[j], curr[j - 1], prev[j - 1]});
    }
    std::swap(prev, curr);
  }
  return prev[m] / static_cast<double>(n + m);
}

}  // namespace iotsim::dsp
