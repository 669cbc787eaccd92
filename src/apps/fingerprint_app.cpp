// A10 — Fingerprint register: deserialises the 512-byte sensor signature
// into a minutiae template, enrolls unseen subjects until the database is
// primed, then identifies probes against it.
#include <set>
#include <sstream>

#include "apps/iot_app.h"
#include "codecs/fingerprint/matcher.h"
#include "codecs/fingerprint/minutiae.h"

namespace iotsim::apps {

namespace {

class FingerprintApp final : public IotApp {
 public:
  FingerprintApp() : IotApp{spec_of(AppId::kA10Fingerprint)} {}

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;
    const auto& scans = in.of(sensors::SensorId::kS3Fingerprint);
    if (scans.empty() || scans.blob(scans.size() - 1).empty()) {
      out.summary = "no scan";
      return out;
    }
    const auto& blob = scans.blob(scans.size() - 1);

    auto* staged = ws.alloc<std::uint8_t>(blob.size());
    std::copy(blob.begin(), blob.end(), staged);
    const auto tpl = codecs::fingerprint::deserialize({staged, blob.size()});
    if (!tpl.has_value()) {
      out.event = true;
      out.summary = "corrupt template";
      return out;
    }

    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    std::ostringstream os;
    // Enrolment phase: the generator labels genuine subjects (>0); the app
    // enrolls first-sighted subjects, mimicking the registration task.
    if (tpl->subject_id != 0 && !enrolled_ids_.contains(tpl->subject_id)) {
      enrolled_ids_.insert(tpl->subject_id);
      (void)db_.enroll(*tpl);
      ++enrolls_;
      os << "enrolled subject " << tpl->subject_id << " (db=" << db_.size() << ")";
      out.metric = static_cast<double>(tpl->subject_id);
      out.summary = os.str();
      return out;
    }

    const auto matched = db_.identify(*tpl);
    ++probes_;
    if (matched.has_value()) {
      ++hits_;
      out.metric = static_cast<double>(*matched);
      os << "identified subject " << *matched;
    } else {
      out.event = true;  // access denied
      os << "unknown finger rejected";
    }
    os << " (hits " << hits_ << "/" << probes_ << ")";
    out.summary = os.str();
    return out;
  }

  [[nodiscard]] std::size_t enrolled() const { return enrolls_; }

 private:
  codecs::fingerprint::EnrollmentDb db_;
  std::set<std::uint16_t> enrolled_ids_;
  std::size_t enrolls_ = 0;
  std::size_t probes_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace

std::unique_ptr<IotApp> make_fingerprint_app() { return std::make_unique<FingerprintApp>(); }

}  // namespace iotsim::apps
