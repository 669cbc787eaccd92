#include "codecs/coap/coap_client.h"

#include <gtest/gtest.h>

namespace iotsim::codecs::coap {
namespace {

TEST(CoapClient, TokensAndMessageIdsAreFresh) {
  CoapClient client;
  const Message a = client.make_get("x");
  const Message b = client.make_get("x");
  EXPECT_NE(a.message_id, b.message_id);
  EXPECT_NE(a.token, b.token);
}

TEST(CoapClient, FetchSmallResourceInOneRoundTrip) {
  CoapServer server;
  server.add_resource("light", [] { return std::string{"{\"lux\":17}"}; });
  CoapClient client;
  const auto result = client.fetch(server, "light");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.representation, "{\"lux\":17}");
  EXPECT_EQ(result.round_trips, 1);
  EXPECT_GT(result.wire_bytes, 0u);
}

TEST(CoapClient, FetchReassemblesBlockwise) {
  CoapServer server;
  std::string big;
  for (int i = 0; i < 40; ++i) big += "chunk" + std::to_string(i) + ";";
  server.add_resource("history", [&] { return big; });
  CoapClient client;
  const auto result = client.fetch(server, "history", 64);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.representation, big);
  EXPECT_EQ(result.round_trips,
            static_cast<int>((big.size() + 63) / 64));
}

TEST(CoapClient, FetchUnknownPathFails) {
  CoapServer server;
  CoapClient client;
  const auto result = client.fetch(server, "missing");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.round_trips, 1);
}

TEST(CoapClient, FetchBoundedByMaxBlocks) {
  CoapServer server;
  server.add_resource("huge", [] { return std::string(10'000, 'z'); });
  CoapClient client;
  const auto result = client.fetch(server, "huge", 16, 4);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.round_trips, 4);
}

class BlockSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BlockSizeSweep, ReassemblyExactAtEverySize) {
  CoapServer server;
  std::string payload;
  for (int i = 0; i < 500; ++i) payload += static_cast<char>('a' + i % 26);
  server.add_resource("r", [&] { return payload; });
  CoapClient client;
  const auto result = client.fetch(server, "r", GetParam());
  ASSERT_TRUE(result.ok) << "block size " << GetParam();
  EXPECT_EQ(result.representation, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockSizeSweep, ::testing::Values(16u, 32u, 64u, 128u, 256u,
                                                                  512u, 1024u));

}  // namespace
}  // namespace iotsim::codecs::coap
