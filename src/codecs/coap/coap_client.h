// CoAP client-side helpers: request building with token management, and
// Block2 reassembly against a CoapServer — the other half of workload A1's
// protocol exchange (and the test jig for interop).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "codecs/coap/coap_server.h"

namespace iotsim::codecs::coap {

class CoapClient {
 public:
  /// Builds a GET for `path`, assigning a fresh message id and token.
  [[nodiscard]] Message make_get(const std::string& path);
  /// Builds a GET for block `num` of `path` at `block_size`.
  [[nodiscard]] Message make_block_get(const std::string& path, std::uint32_t num,
                                       std::uint32_t block_size);

  struct FetchResult {
    bool ok = false;
    std::string representation;  // reassembled on success
    int round_trips = 0;
    std::size_t wire_bytes = 0;  // request + response bytes exchanged
  };

  /// Fetches a full representation from `server`, following Block2 until
  /// the final block (bounded by `max_blocks`). Every exchange round-trips
  /// through the wire codec, so framing bugs surface here.
  [[nodiscard]] FetchResult fetch(CoapServer& server, const std::string& path,
                                  std::uint32_t block_size = 64, int max_blocks = 64);

 private:
  [[nodiscard]] std::vector<std::uint8_t> fresh_token();

  std::uint16_t next_mid_ = 1;
  std::uint32_t next_token_ = 0xC0;
};

}  // namespace iotsim::codecs::coap
