// Versioned binary codec for core::ScenarioResult — the payload format of
// the persistent result cache (cache/result_cache.h).
//
// Layout: u32 magic, u32 version, the full result object graph in a fixed
// field order (little-endian integers, bit-exact doubles via binary_io.h),
// and a CRC-32 trailer over everything before it. decode_result() returns
// nullopt on truncation, CRC mismatch, magic/version mismatch, or trailing
// garbage — callers treat all of those as a cache miss and recompute.
//
// Versioning discipline: bump kResultCodecVersion whenever the encoded
// field set or layout changes. Old entries then decode as misses and are
// rewritten; they never decode as garbage. The codec-coverage analyzer pass
// (tools/analyze/pass_coverage.cpp) enforces that every field of the result
// structs reaches encode_result() — whose field walks also decode — so a
// field added to ScenarioResult without a codec (and version) update fails
// CI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/reports.h"

namespace iotsim::cache {

inline constexpr std::uint32_t kResultCodecMagic = 0x52436373;  // "scCR" little-endian
inline constexpr std::uint32_t kResultCodecVersion = 3;

/// Serialises the full result (energy report, per-hub sections, QoS, the
/// optional power trace) with a CRC-32 integrity trailer.
[[nodiscard]] std::string encode_result(const core::ScenarioResult& result);

/// Exact inverse of encode_result(); nullopt on any integrity failure.
[[nodiscard]] std::optional<core::ScenarioResult> decode_result(std::string_view bytes);

}  // namespace iotsim::cache
