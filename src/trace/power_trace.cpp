#include "trace/power_trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace iotsim::trace {

void PowerTrace::attach(energy::PowerStateMachine& machine, std::string name) {
  component_names_.emplace_back(machine.component(), std::move(name));
  machine.add_listener([this](const energy::PowerSegment& seg) { segments_.push_back(seg); });
}

double PowerTrace::component_watts_at(energy::ComponentId c, sim::SimTime t) const {
  for (const auto& s : segments_) {
    if (s.component == c && s.begin <= t && t < s.end) return s.watts;
  }
  return 0.0;
}

double PowerTrace::joules_between(sim::SimTime begin, sim::SimTime end) const {
  double j = 0.0;
  for (const auto& s : segments_) {
    const sim::SimTime lo = std::max(s.begin, begin);
    const sim::SimTime hi = std::min(s.end, end);
    if (hi > lo) j += s.watts * (hi - lo).to_seconds();
  }
  return j;
}

double PowerTrace::component_joules_between(energy::ComponentId c, sim::SimTime begin,
                                            sim::SimTime end) const {
  double j = 0.0;
  for (const auto& s : segments_) {
    if (s.component != c) continue;
    const sim::SimTime lo = std::max(s.begin, begin);
    const sim::SimTime hi = std::min(s.end, end);
    if (hi > lo) j += s.watts * (hi - lo).to_seconds();
  }
  return j;
}

std::string PowerTrace::render_timeline(sim::SimTime begin, sim::SimTime end,
                                        std::size_t columns) const {
  assert(end > begin && columns > 0);
  std::ostringstream os;
  const sim::Duration span = end - begin;
  const auto column_start = [&](std::size_t col) {
    return begin + sim::Duration::ns(span.count_ns() * static_cast<std::int64_t>(col) /
                                     static_cast<std::int64_t>(columns));
  };
  std::size_t label_width = 10;
  for (const auto& [comp, name] : component_names_) {
    label_width = std::max(label_width, name.size() + 1);
  }
  for (const auto& [comp, name] : component_names_) {
    // Per-column *average* power for this component (instantaneous sampling
    // would miss sub-column activity like 0.1 ms sensor reads), mapped to a
    // glyph ramp against the component's peak.
    double comp_max = 0.0;
    for (const auto& s : segments_) {
      if (s.component == comp) comp_max = std::max(comp_max, s.watts);
    }
    os << name;
    for (std::size_t pad = name.size(); pad < label_width; ++pad) os << ' ';
    os << '|';
    for (std::size_t col = 0; col < columns; ++col) {
      const auto t0 = column_start(col);
      const auto t1 = column_start(col + 1);
      const double secs = (t1 - t0).to_seconds();
      const double w = secs > 0.0 ? component_joules_between(comp, t0, t1) / secs : 0.0;
      static constexpr char kRamp[] = {' ', '.', ':', '-', '=', '#'};
      std::size_t idx = 0;
      if (comp_max > 0.0 && w > 0.0) {
        idx = static_cast<std::size_t>(std::lround(w / comp_max * 5.0));
        idx = std::min<std::size_t>(idx, 5);
        // Any real activity in the column stays visible.
        idx = std::max<std::size_t>(idx, 1);
      }
      os << kRamp[idx];
    }
    os << "|\n";
  }
  os << "          " << '^' << begin.to_seconds() << "s"
     << std::string(columns > 20 ? columns - 20 : 0, ' ') << '^' << end.to_seconds() << "s\n";
  return os.str();
}

}  // namespace iotsim::trace
