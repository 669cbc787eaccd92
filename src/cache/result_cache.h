// Persistent content-addressed result cache — the disk tier under
// core::SweepRunner's in-memory memo (ROADMAP "sweep-as-a-service").
//
// Keying: the full scenario_key() byte serialisation (version-tagged
// "iotSim06"), never a digest alone. Entries are sharded into
// subdirectories by the leading byte of the CRC-32 scenario fingerprint,
// and the file name carries the CRC-32 plus an FNV-1a-64 of the key — but
// the entry itself stores the complete key and lookup() compares it, so a
// fingerprint collision degrades to a miss (and an overwrite on store),
// never to a wrong result.
//
// Durability: store() writes a temp file in the entry's shard directory
// (name unique per process and store call) and publishes it with an atomic
// std::filesystem::rename, so concurrent processes and sweep workers never
// observe a torn entry — a racing store of the same key just rewrites the
// same bytes. Any corrupt, truncated, or version-mismatched entry is
// treated as a miss (counted in stats) and rewritten by the next store; a
// cache directory that cannot be created or written degrades the cache to
// always-miss/never-store rather than failing the sweep.
//
// On-disk entry layout (all little-endian):
//   u32 entry magic, u32 entry version,
//   u64 key length + key bytes,
//   u64 payload length + payload (encode_result(): its own magic/version
//                                 and CRC-32 trailer),
//   u32 CRC-32 over all preceding bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string_view>

#include "core/reports.h"

namespace iotsim::cache {

inline constexpr std::uint32_t kEntryMagic = 0x45436373;  // "scCE" little-endian
inline constexpr std::uint32_t kEntryVersion = 1;

/// Monotonic counters; every probe is a hit or a miss, and corrupt_entries
/// counts the misses where an entry existed but failed integrity checks.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t corrupt_entries = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
};

class ResultCache {
 public:
  /// Opens the cache rooted at `dir`, best-effort creating it. Thread-safe:
  /// lookup/store may race freely across threads and processes.
  explicit ResultCache(std::filesystem::path dir);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The entry file a key is stored at (exists or not):
  /// <dir>/<xx>/<crc32 hex>-<fnv64 hex>.res, xx = fingerprint's top byte.
  [[nodiscard]] std::filesystem::path entry_path(std::string_view key) const;

  /// nullptr on miss — including present-but-corrupt entries and
  /// fingerprint collisions (the stored key is compared byte-for-byte).
  [[nodiscard]] std::shared_ptr<const core::ScenarioResult> lookup(std::string_view key);

  /// Persists `result` under `key`; false when the write could not be
  /// published (read-only directory, full disk, …) — never throws for I/O.
  bool store(std::string_view key, const core::ScenarioResult& result);

  [[nodiscard]] CacheStats stats() const;

 private:
  std::filesystem::path dir_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> corrupt_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> store_failures_{0};
  /// Distinguishes temp files of concurrent stores within this process;
  /// the process id distinguishes across processes.
  std::atomic<std::uint64_t> temp_seq_{0};
};

}  // namespace iotsim::cache
