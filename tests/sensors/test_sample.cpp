// The sensor reading's storage: inline channels and a one-pointer blob.
#include "sensors/sample.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace iotsim::sensors {
namespace {

// A window buffer holds thousands of these per hub.
static_assert(sizeof(Sample) <= 48);

template <typename C>
concept TakesThreeChannels = requires(C c) { c = {1.0, 2.0, 3.0}; };
template <typename C>
concept TakesFourChannels = requires(C c) { c = {1.0, 2.0, 3.0, 4.0}; };
static_assert(TakesThreeChannels<Channels>);
static_assert(!TakesFourChannels<Channels>, "a fourth channel must not compile");

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> list) { return list; }

TEST(Channels, HoldTheAssignedValuesInOrder) {
  Channels ch;
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.begin(), ch.end());

  ch = {1.5, -2.0, 9.81};
  ASSERT_EQ(ch.size(), 3u);
  EXPECT_EQ(ch[0], 1.5);
  EXPECT_EQ(ch.at(1), -2.0);
  EXPECT_EQ(ch[2], 9.81);
  std::vector<double> seen;
  for (double v : ch) seen.push_back(v);
  EXPECT_EQ(seen, (std::vector<double>{1.5, -2.0, 9.81}));

  ch = {7.0};
  ASSERT_EQ(ch.size(), 1u);
  EXPECT_EQ(ch[0], 7.0);
  EXPECT_EQ(ch.end() - ch.begin(), 1);
}

TEST(Channels, AtRejectsAnIndexPastTheSize) {
  Channels ch;
  EXPECT_THROW((void)ch.at(0), std::out_of_range);
  ch = {4.0, 5.0};
  EXPECT_EQ(ch.at(1), 5.0);
  EXPECT_THROW((void)ch.at(2), std::out_of_range);
}

TEST(Blob, EmptyUntilGivenBytes) {
  Blob b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.begin(), b.end());
  b = std::vector<std::uint8_t>{};
  EXPECT_TRUE(b.empty());
  b = bytes({1, 2, 3});
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.size(), 3u);
}

TEST(Blob, CopyIsDeepAndComparesEqual) {
  Blob a;
  a = bytes({10, 20, 30, 40});
  const Blob b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(a, b);
  EXPECT_NE(a.data(), b.data());

  a = bytes({10, 20, 30, 41});
  EXPECT_NE(a, b);
  EXPECT_NE(a, Blob{});
  EXPECT_EQ(Blob{}, Blob{});
}

TEST(Blob, MovedFromIsEmpty) {
  Blob a;
  a = bytes({5, 6, 7});
  const std::uint8_t* payload = a.data();

  Blob b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.data(), payload);
  EXPECT_EQ(b.size(), 3u);

  Blob c;
  c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.data(), payload);
}

TEST(Blob, SpanCoversExactlyThePayload) {
  Blob b;
  b = bytes({0xFF, 0xD8, 0xFF, 0xD9});
  const std::span<const std::uint8_t> view = b;
  EXPECT_EQ(view.data(), b.data());
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()), bytes({0xFF, 0xD8, 0xFF, 0xD9}));

  const std::span<const std::uint8_t> none = Blob{};
  EXPECT_TRUE(none.empty());
}

TEST(Sample, CopyDuplicatesChannelsAndBlob) {
  Sample s;
  s.time = sim::SimTime::from_ns(42);
  s.channels = {3.0, 4.0};
  s.blob = bytes({9, 8});
  const Sample copy = s;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.time, s.time);
  ASSERT_EQ(copy.channels.size(), 2u);
  EXPECT_EQ(copy.channels[1], 4.0);
  EXPECT_EQ(copy.blob, s.blob);
  EXPECT_NE(copy.blob.data(), s.blob.data());
  EXPECT_EQ(copy.wire_bytes(12), 2u);
  EXPECT_EQ(Sample{}.wire_bytes(12), 12u);
}

}  // namespace
}  // namespace iotsim::sensors
