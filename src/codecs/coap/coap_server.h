// A small CoAP resource server with Observe (RFC 7641) and Block2 blockwise
// transfer (RFC 7959) — the machinery a real constrained sensor server
// (workload A1) runs on top of the base RFC 7252 codec.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "codecs/coap/coap_codec.h"

namespace iotsim::codecs::coap {

/// Extended option numbers used by the server.
enum class ExtOption : std::uint16_t {
  kObserve = 6,    // RFC 7641
  kBlock2 = 23,    // RFC 7959
};

/// Decoded Block2 option value: NUM / M / SZX.
struct BlockOption {
  std::uint32_t num = 0;
  bool more = false;
  std::uint32_t size = 16;  // 16..1024, power of two

  [[nodiscard]] static std::optional<BlockOption> parse(const Option& opt);
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
};

/// One observable resource: a path and a producer callback.
struct Resource {
  std::string path;
  std::function<std::string()> read;  // produces the current representation
};

class CoapServer {
 public:
  /// Registers a resource at a single-segment path.
  void add_resource(std::string path, std::function<std::string()> read);

  /// Handles one request, producing the response message. GETs on known
  /// resources return 2.05 Content (block-wise when the representation
  /// exceeds `preferred_block_size` or the client asked for a block);
  /// GETs with Observe:0 additionally register the observer. Unknown paths
  /// return 4.04.
  [[nodiscard]] Message handle(const Message& request);

  /// Notifies every observer of `path` with a fresh representation.
  /// Returns the encoded notification messages (one per observer).
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> notify_observers(const std::string& path);

  [[nodiscard]] std::size_t observer_count(const std::string& path) const;

  std::size_t preferred_block_size = 64;

 private:
  struct Observer {
    std::vector<std::uint8_t> token;
    std::uint32_t sequence = 1;
  };

  std::map<std::string, Resource> resources_;
  std::map<std::string, std::vector<Observer>> observers_;
  std::uint16_t next_mid_ = 0x4000;
};

}  // namespace iotsim::codecs::coap
