#include "cache/result_cache.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "cache/binary_io.h"
#include "cache/result_codec.h"
#include "codecs/util/checksum.h"

namespace iotsim::cache {

namespace {

std::uint32_t crc_of(std::string_view bytes) {
  return codecs::util::crc32(
      std::span{reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v, int digits) {
  std::string out(static_cast<std::size_t>(digits), '0');
  for (int i = digits - 1; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[v & 0xF];
    v >>= 4;
  }
  return out;
}

std::uint64_t process_id() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

std::string read_all(const std::filesystem::path& p) {
  std::ifstream in{p, std::ios::binary};
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace

ResultCache::ResultCache(std::filesystem::path dir) : dir_{std::move(dir)} {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Failure is tolerated here: lookups miss, stores count store_failures.
}

std::filesystem::path ResultCache::entry_path(std::string_view key) const {
  const std::uint32_t crc = crc_of(key);
  const std::uint64_t fnv = fnv1a64(key);
  const std::string shard = hex(crc >> 24, 2);
  return dir_ / shard / (hex(crc, 8) + "-" + hex(fnv, 16) + ".res");
}

std::shared_ptr<const core::ScenarioResult> ResultCache::lookup(std::string_view key) {
  const std::string bytes = read_all(entry_path(key));
  if (bytes.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const auto corrupt = [this]() -> std::shared_ptr<const core::ScenarioResult> {
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  };
  // Envelope: magic/version/key/payload, CRC-32 over everything before it.
  if (bytes.size() < 4) return corrupt();
  const std::string_view body{bytes.data(), bytes.size() - 4};
  std::uint32_t crc = 0;
  ByteReader{std::string_view{bytes}.substr(bytes.size() - 4)}.u32(crc);
  if (crc != crc_of(body)) return corrupt();
  ByteReader r{body};
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::string stored_key;
  r.u32(magic);
  r.u32(version);
  if (magic != kEntryMagic || version != kEntryVersion) return corrupt();
  r.str(stored_key);
  if (!r.ok()) return corrupt();
  if (stored_key != key) {
    // Fingerprint collision: a different scenario lives at this path.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  std::string payload;
  r.str(payload);
  if (!r.ok() || !r.at_end()) return corrupt();
  auto decoded = decode_result(payload);
  if (!decoded) return corrupt();
  hits_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<const core::ScenarioResult>(*std::move(decoded));
}

bool ResultCache::store(std::string_view key, const core::ScenarioResult& result) {
  const auto failed = [this] {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  const std::filesystem::path path = entry_path(key);
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  if (ec) return failed();

  ByteWriter w;
  w.u32(kEntryMagic);
  w.u32(kEntryVersion);
  w.str(key);
  w.str(encode_result(result));
  w.u32(crc_of(w.bytes()));

  const std::uint64_t seq = temp_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::filesystem::path tmp =
      path.parent_path() /
      ("tmp-" + hex(process_id(), 8) + "-" + hex(seq, 8) + path.filename().string());
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) return failed();
    const std::string& bytes = w.bytes();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return failed();
    }
  }
  // Atomic publish: rename replaces any existing entry in one step, so
  // readers (and racing writers of the same key) only ever see a complete
  // entry — last writer wins with byte-identical content.
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return failed();
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.corrupt_entries = corrupt_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.store_failures = store_failures_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace iotsim::cache
