// Span recorder for the traced benchmark run.
//
// The benchmark opens a span around each call it makes into a library layer
// (name, start, end, parent). Spans stay in memory and are written out when
// the run ends; per-layer timings and self times are derived from them.
// With tracing off a Scope reads no clock and records nothing, so the
// untraced runs that produce the end-to-end metrics pay nothing for it.
// Single-threaded: spans are opened only on the benchmark's main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index into the recorder's span list; -1 for a root span
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool on) : on_{on} {}

  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  [[nodiscard]] Scope scope(const char* name) { return Scope{this, name}; }
  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Durations in seconds of every closed span called `name`, in order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time in seconds per span name: a span's duration minus the time
  /// its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes the spans as a Chrome trace-event file (one "X" event per span).
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  static std::int64_t now_ns();

  bool on_;
  std::vector<Span> spans_;
  int current_ = -1;
};

}  // namespace perfbench
