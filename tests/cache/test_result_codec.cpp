// The result codec must round-trip every ScenarioResult bit-exactly (the
// persistent cache's warm results must be indistinguishable from cold
// ones), and must reject — as nullopt, never as garbage — every corrupted
// form of its own output.
#include "cache/result_codec.h"

#include <gtest/gtest.h>

#include <string>

#include "cache/binary_io.h"
#include "codecs/util/checksum.h"
#include "core/result_json.h"
#include "core/scenario_runner.h"
#include "core/sweep.h"
#include "sweep_options.h"

namespace iotsim::cache {
namespace {

using apps::AppId;
using core::Scenario;
using core::ScenarioResult;
using core::Scheme;

ScenarioResult sample_result(bool with_trace = false) {
  Scenario sc;
  sc.app_ids = {AppId::kA2StepCounter, AppId::kA7Earthquake};
  sc.scheme = Scheme::kBcom;
  sc.windows = 2;
  sc.world.quakes = {{0.6, 0.2, 2.0}};
  sc.record_power_trace = with_trace;
  return core::run_scenario(sc);
}

ScenarioResult fleet_result() {
  Scenario sc;
  sc.scheme = Scheme::kBatching;
  sc.windows = 2;
  core::HubInstance hubs;
  hubs.app_ids = {AppId::kA2StepCounter};
  hubs.count = 3;
  sc.hubs = {hubs};
  return core::run_scenario(sc);
}

// Bit-exact equality via the codec itself: encoding is deterministic and
// covers the full object graph, so equal byte strings mean equal results.
void expect_roundtrip(const ScenarioResult& r) {
  const std::string bytes = encode_result(r);
  const auto back = decode_result(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(encode_result(*back), bytes);
  // And the user-visible projection agrees too.
  EXPECT_EQ(core::to_json_text(*back), core::to_json_text(r));
}

TEST(ResultCodec, RoundTripsASingleHubResult) { expect_roundtrip(sample_result()); }

TEST(ResultCodec, RoundTripsThePowerTrace) {
  const auto r = sample_result(/*with_trace=*/true);
  ASSERT_NE(r.power_trace, nullptr);
  const auto back = decode_result(encode_result(r));
  ASSERT_TRUE(back.has_value());
  ASSERT_NE(back->power_trace, nullptr);
  EXPECT_EQ(back->power_trace->segments().size(), r.power_trace->segments().size());
  expect_roundtrip(r);
}

TEST(ResultCodec, RoundTripsAFleetResult) { expect_roundtrip(fleet_result()); }

TEST(ResultCodec, RoundTripsAnInvalidResult) {
  // Invalid scenarios produce error-only results; those are cacheable too.
  core::SweepRunner runner{test::with_jobs(1)};
  const auto results = runner.run(std::vector{Scenario::builder().windows(0).build()});
  ASSERT_FALSE(results[0].ok());
  expect_roundtrip(results[0]);
}

TEST(ResultCodec, KeepsWhetherASingleHubRanAsAFleet) {
  // One hub either way: only the fleet flag decides whether the JSON shows
  // that hub's per-app sections at the top level, so it must survive too.
  Scenario fleet_of_one;
  fleet_of_one.scheme = Scheme::kBcom;
  fleet_of_one.windows = 2;
  core::HubInstance hub;
  hub.app_ids = {AppId::kA2StepCounter, AppId::kA7Earthquake};
  fleet_of_one.hubs = {hub};
  for (const ScenarioResult& r : {sample_result(), core::run_scenario(fleet_of_one)}) {
    ASSERT_EQ(r.hubs.size(), 1u);
    const auto back = decode_result(encode_result(r));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->fleet, r.fleet);
    EXPECT_EQ(core::to_json_text(*back), core::to_json_text(r));
  }
}

TEST(ResultCodec, RejectsEveryTruncation) {
  const std::string bytes = encode_result(sample_result());
  // Every proper prefix must decode as nullopt — the reader latches on the
  // first out-of-range read instead of returning partial results.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ASSERT_FALSE(decode_result(std::string_view{bytes}.substr(0, len)).has_value())
        << "prefix of length " << len << " decoded";
  }
}

TEST(ResultCodec, RejectsAnyFlippedByte) {
  const std::string bytes = encode_result(sample_result());
  // Flip one byte at a stride across the buffer: the CRC trailer must veto
  // every one of them (including flips inside the trailer itself).
  for (std::size_t at = 0; at < bytes.size(); at += 7) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    EXPECT_FALSE(decode_result(bad).has_value()) << "flip at byte " << at;
  }
}

TEST(ResultCodec, RejectsVersionAndMagicMismatch) {
  const auto r = sample_result();
  const std::string good = encode_result(r);
  // Re-pack the payload under a wrong version/magic with a *valid* CRC, so
  // the version check itself is exercised rather than the checksum.
  const auto repack = [&](std::uint32_t magic, std::uint32_t version) {
    ByteWriter w;
    w.u32(magic);
    w.u32(version);
    std::string body = good.substr(8, good.size() - 12);  // fields sans trailer
    for (const char c : body) w.u8(static_cast<std::uint8_t>(c));
    std::string out = std::move(w).take();
    ByteWriter crc;
    crc.u32(codecs::util::crc32(std::span{
        reinterpret_cast<const std::uint8_t*>(out.data()), out.size()}));
    return out + std::move(crc).take();
  };
  EXPECT_TRUE(decode_result(repack(kResultCodecMagic, kResultCodecVersion)).has_value());
  EXPECT_FALSE(decode_result(repack(kResultCodecMagic, kResultCodecVersion + 1)).has_value());
  EXPECT_FALSE(decode_result(repack(kResultCodecMagic ^ 1, kResultCodecVersion)).has_value());
}

TEST(ResultCodec, RejectsTrailingGarbage) {
  std::string bytes = encode_result(sample_result());
  bytes += '\0';
  EXPECT_FALSE(decode_result(bytes).has_value());
}

TEST(ResultCodec, RejectsEmptyAndTinyInputs) {
  EXPECT_FALSE(decode_result({}).has_value());
  EXPECT_FALSE(decode_result("sc").has_value());
  EXPECT_FALSE(decode_result(std::string(11, '\0')).has_value());
}

}  // namespace
}  // namespace iotsim::cache
