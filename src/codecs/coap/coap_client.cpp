#include "codecs/coap/coap_client.h"

namespace iotsim::codecs::coap {

std::vector<std::uint8_t> CoapClient::fresh_token() {
  const std::uint32_t t = next_token_++;
  return {static_cast<std::uint8_t>(t >> 8), static_cast<std::uint8_t>(t & 0xFF)};
}

Message CoapClient::make_get(const std::string& path) {
  Message req;
  req.type = Type::kConfirmable;
  req.code = kGet;
  req.message_id = next_mid_++;
  req.token = fresh_token();
  req.add_uri_path(path);
  return req;
}

Message CoapClient::make_block_get(const std::string& path, std::uint32_t num,
                                   std::uint32_t block_size) {
  Message req = make_get(path);
  req.add_option(static_cast<OptionNumber>(ExtOption::kBlock2),
                 BlockOption{num, false, block_size}.encode());
  return req;
}

CoapClient::FetchResult CoapClient::fetch(CoapServer& server, const std::string& path,
                                          std::uint32_t block_size, int max_blocks) {
  FetchResult result;
  for (std::uint32_t num = 0; static_cast<int>(num) < max_blocks; ++num) {
    // Round-trip through the wire format both ways, like a real exchange.
    const auto request_wire = encode(make_block_get(path, num, block_size));
    const auto request = decode(request_wire);
    if (!request.ok()) return result;
    const Message response = server.handle(*request.message);
    const auto response_wire = encode(response);
    const auto reparsed = decode(response_wire);
    if (!reparsed.ok()) return result;

    ++result.round_trips;
    result.wire_bytes += request_wire.size() + response_wire.size();
    if (reparsed.message->code != kContent) return result;

    result.representation += reparsed.message->payload_text();
    bool more = false;
    for (const auto& opt : reparsed.message->options) {
      if (opt.number == static_cast<std::uint16_t>(ExtOption::kBlock2)) {
        if (const auto block = BlockOption::parse(opt)) more = block->more;
      }
    }
    if (!more) {
      result.ok = true;
      return result;
    }
  }
  return result;  // ran out of blocks
}

}  // namespace iotsim::codecs::coap
