#include "spans.h"

#include <fstream>
#include <iomanip>

namespace perfbench {

std::int64_t SpanRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name) : rec_{rec} {
  if (!rec_->on_) return;
  saved_parent_ = rec_->current_;
  index_ = static_cast<int>(rec_->spans_.size());
  rec_->spans_.push_back(Span{name, now_ns(), -1, saved_parent_});
  rec_->current_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  rec_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  rec_->current_ = saved_parent_;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns < 0) continue;
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

void SpanRecorder::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream out{path};
  if (!out) return;
  out << std::fixed << std::setprecision(3);  // microseconds with ns digits
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  const char* sep = "";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns < 0) continue;
    out << sep << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    sep = ",\n";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
