// Dynamic time warping over feature-vector sequences — the keyword-matching
// back-end of the speech-to-text kernel (A11).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace iotsim::dsp {

using FeatureSeq = std::vector<std::vector<double>>;

/// Euclidean distance between two equal-length feature vectors.
[[nodiscard]] double euclidean(std::span<const double> a, std::span<const double> b);

/// DTW alignment cost between two sequences, normalised by path length.
/// Returns +inf for empty inputs.
[[nodiscard]] double dtw_distance(const FeatureSeq& a, const FeatureSeq& b);

}  // namespace iotsim::dsp
