// A1 — CoAP server: runs a real RFC 7252 resource server with Observe
// (RFC 7641) and Block2 (RFC 7959) over the light and sound channels. Each
// window it serves synthetic client GETs, pushes observer notifications
// with fresh aggregates, and streams a block-wise history resource.
#include <sstream>

#include "apps/iot_app.h"
#include "codecs/coap/coap_client.h"
#include "codecs/coap/coap_server.h"
#include "codecs/json/json_value.h"
#include "codecs/json/json_writer.h"
#include "dsp/filters.h"

namespace iotsim::apps {

namespace {

class CoapServerApp final : public IotApp {
 public:
  CoapServerApp() : IotApp{spec_of(AppId::kA1CoapServer)} {
    server_.preferred_block_size = 64;
    server_.add_resource("light", [this] { return latest_["light"]; });
    server_.add_resource("sound", [this] { return latest_["sound"]; });
    server_.add_resource("history", [this] { return history_; });
  }

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;

    struct Channel {
      const char* path;
      sensors::SensorId sensor;
    };
    const Channel channels[] = {{"light", sensors::SensorId::kS7Light},
                                {"sound", sensors::SensorId::kS8Sound}};

    // Refresh the resource representations from this window's samples.
    for (const auto& ch : channels) {
      const auto& samples = in.of(ch.sensor);
      if (samples.empty()) continue;
      double* values = ws.alloc<double>(samples.size());
      for (std::size_t i = 0; i < samples.size(); ++i) values[i] = samples.value(i);
      const dsp::Stats stats = dsp::compute_stats({values, samples.size()});

      codecs::json::Value body;
      body["n"] = codecs::json::Value{static_cast<int>(samples.size())};
      body["mean"] = codecs::json::Value{stats.mean};
      body["min"] = codecs::json::Value{stats.min};
      body["max"] = codecs::json::Value{stats.max};
      latest_[ch.path] = codecs::json::dump(body);
      history_ += latest_[ch.path] + "\n";
      if (history_.size() > 1536) history_.erase(0, history_.size() - 1536);
    }

    std::size_t served = 0;
    std::size_t response_bytes = 0;
    auto serve = [&](codecs::coap::Message request) {
      const auto wire = codecs::coap::encode(request);
      const auto decoded = codecs::coap::decode(wire);
      if (!decoded.ok()) return;
      const auto response = server_.handle(*decoded.message);
      response_bytes += codecs::coap::encode(response).size();
      if (response.code == codecs::coap::kContent) ++served;
    };

    // Plain GETs on both live resources.
    for (const auto& ch : channels) {
      codecs::coap::Message req;
      req.code = codecs::coap::kGet;
      req.message_id = next_mid_++;
      req.token = {static_cast<std::uint8_t>(served + 1)};
      req.add_uri_path("sensors");
      req.add_uri_path(ch.path);
      serve(std::move(req));
    }

    // One observer per resource registers on the first window; afterwards
    // each window pushes notifications with the fresh aggregates.
    if (!observers_registered_) {
      for (const auto& ch : channels) {
        codecs::coap::Message req;
        req.code = codecs::coap::kGet;
        req.message_id = next_mid_++;
        req.token = {0x0B, static_cast<std::uint8_t>(ch.path[0])};
        req.add_uri_path(ch.path);
        req.add_option(static_cast<codecs::coap::OptionNumber>(codecs::coap::ExtOption::kObserve),
                       {0});
        serve(std::move(req));
      }
      observers_registered_ = true;
    }
    std::size_t notifications = 0;
    for (const auto& ch : channels) {
      for (const auto& note : server_.notify_observers(ch.path)) {
        response_bytes += note.size();
        ++notifications;
      }
    }

    // A client pages through the block-wise history resource (full wire
    // round trips via the CoAP client's Block2 reassembly).
    const auto history = client_.fetch(server_, "history", 64, 32);
    if (history.ok) {
      served += static_cast<std::size_t>(history.round_trips);
      response_bytes += history.wire_bytes;
    }

    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    out.net_payload_bytes = response_bytes;
    out.metric = static_cast<double>(served);
    std::ostringstream os;
    os << "served=" << served << " notified=" << notifications << " bytes=" << response_bytes
       << " observers=" << server_.observer_count("light") + server_.observer_count("sound");
    out.summary = os.str();
    return out;
  }

 private:
  codecs::coap::CoapServer server_;
  codecs::coap::CoapClient client_;
  std::map<std::string, std::string> latest_;
  std::string history_;
  bool observers_registered_ = false;
  std::uint16_t next_mid_ = 1;
};

}  // namespace

std::unique_ptr<IotApp> make_coap_server_app() { return std::make_unique<CoapServerApp>(); }

}  // namespace iotsim::apps
