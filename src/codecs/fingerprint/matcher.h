// Minutiae matching (A10's "Fingerprint Enroll, Identify" tasks).
//
// Greedy nearest-neighbour pairing under position/angle tolerances, scored
// as paired fraction of the smaller template — a standard lightweight
// matcher of the kind embedded fingerprint modules run.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "codecs/fingerprint/minutiae.h"

namespace iotsim::codecs::fingerprint {

struct MatchConfig {
  double position_tolerance = 12.0;   // sensor grid units
  double angle_tolerance_deg = 18.0;
  double accept_score = 0.45;         // score ≥ this ⇒ same finger
};

struct MatchResult {
  double score = 0.0;       // 0..1
  std::size_t paired = 0;   // minutiae pairs found
  bool accepted = false;
};

[[nodiscard]] MatchResult match(const Template& probe, const Template& reference,
                                const MatchConfig& cfg = {});

/// A small in-memory enrolment database (the sensor module's flash).
class EnrollmentDb {
 public:
  /// Returns false when the database is full.
  bool enroll(Template tpl, std::size_t capacity = 128);

  /// Best match across enrolled templates; nullopt when none accepted.
  [[nodiscard]] std::optional<std::uint16_t> identify(const Template& probe,
                                                      const MatchConfig& cfg = {}) const;

  [[nodiscard]] std::size_t size() const { return templates_.size(); }

 private:
  std::vector<Template> templates_;
};

}  // namespace iotsim::codecs::fingerprint
