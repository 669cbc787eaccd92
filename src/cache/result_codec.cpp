// ScenarioResult <-> bytes. One field walk per result struct serves both
// directions: walk(ByteWriter&, const T&) encodes and walk(ByteReader&, T&)
// decodes the same lines, so decode cannot drift from encode. Every walk
// line that moves a scalar result field is written
// `ar.<primitive>(<object>.<field>)` so the analyzer's codec-coverage pass
// (and its field-deletion test) can reason about — and delete — individual
// field lines; sequences, maps and the optional trace go through seq(),
// keyed() and nullable(). The round-trip contract is bit-identity, proven
// in tests/cache/.
#include "cache/result_codec.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/binary_io.h"
#include "codecs/util/checksum.h"

namespace iotsim::cache {

/// The only code outside energy::EnergyReport / trace::PowerTrace that
/// touches their private state (both class definitions befriend it):
/// cached reports and traces must reconstruct bit-identically, including
/// fields no public mutator exposes.
class ResultCodec {
 public:
  /// What a walk sees of a T: const when encoding, mutable when decoding.
  template <class Ar, class T>
  using Ref = std::conditional_t<std::is_same_v<Ar, ByteWriter>, const T&, T&>;
  template <class Ar>
  static constexpr bool kReading = std::is_same_v<Ar, ByteReader>;

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, core::ScenarioResult> r) {
    ar.enum_u8(r.scheme);
    seq(ar, r.errors);
    walk(ar, r.energy);
    ar.dur(r.span);
    ar.boolean(r.fleet);
    seq(ar, r.hubs);
    ar.u64(r.interrupts_raised);
    ar.u64(r.cpu_wakeups);
    ar.u64(r.sensor_read_errors);
    ar.boolean(r.qos_met);
    nullable(ar, r.power_trace);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, core::ScenarioError> e) {
    ar.str(e.field);
    ar.str(e.message);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, energy::EnergyReport> e) {
    walk(ar, e.routine_j_);
    keyed(ar, e.component_j_);
    ar.dur(e.elapsed_);
    walk(ar, e.congestion_);
    walk(ar, e.kernel_);
    walk(ar, e.availability_);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, std::array<double, energy::kRoutineCount>> joules) {
    for (auto& j : joules) ar.f64(j);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, energy::CongestionSummary> c) {
    ar.boolean(c.modeled);
    ar.f64(c.utilization);
    ar.dur(c.airtime_wait);
    ar.u64(c.grants);
    ar.u64(c.retries);
    ar.u64(c.drops);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, energy::KernelSummary> k) {
    ar.u64(k.events_dispatched);
    ar.size(k.peak_queue_depth);
    ar.str(k.scheduler);
    ar.i32(k.shards);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, energy::AvailabilitySummary> a) {
    ar.boolean(a.modeled);
    ar.u64(a.hubs_modeled);
    ar.u64(a.reboots);
    ar.u64(a.windows_lost);
    ar.u64(a.samples_lost_faults);
    ar.u64(a.samples_lost_outage);
    ar.u64(a.samples_lost_crash);
    ar.dur(a.downtime);
    ar.f64(a.harvested_j);
    ar.f64(a.billed_j);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, trace::PowerTrace> t) {
    seq(ar, t.segments_);
    seq(ar, t.component_names_);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, energy::PowerSegment> seg) {
    ar.size(seg.component);
    ar.enum_u8(seg.routine);
    ar.time(seg.begin);
    ar.time(seg.end);
    ar.f64(seg.watts);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, std::pair<energy::ComponentId, std::string>> name) {
    ar.size(name.first);
    ar.str(name.second);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, core::HubResult> h) {
    ar.str(h.name);
    walk(ar, h.energy);
    keyed(ar, h.apps);
    walk(ar, h.plan);
    keyed(ar, h.notes);
    ar.u64(h.interrupts_raised);
    ar.u64(h.cpu_wakeups);
    ar.u64(h.sensor_read_errors);
    walk(ar, h.availability);
    ar.dur(h.airtime_wait);
    ar.u64(h.airtime_grants);
    ar.u64(h.net_retries);
    ar.u64(h.net_drops);
    ar.boolean(h.qos_met);
    ar.str(h.qos_summary);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, core::AppResult> a) {
    seq(ar, a.records);
    walk(ar, a.qos);
    walk(ar, a.busy_per_window);
    ar.enum_u8(a.mode);
    ar.size(a.heap_peak_bytes);
    ar.size(a.stack_peak_bytes);
    ar.u64(a.instructions);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, core::WindowRecord> rec) {
    ar.i32(rec.window);
    ar.time(rec.started);
    ar.time(rec.completed);
    ar.str(rec.summary);
    ar.f64(rec.metric);
    ar.boolean(rec.event);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, core::AppQos> q) {
    ar.size(q.windows);
    ar.size(q.deadline_misses);
    ar.dur(q.worst_latency);
    ar.dur(q.total_latency);
    ar.dur(q.worst_sample_jitter);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, core::BusyBreakdown> b) {
    ar.dur(b.data_collection);
    ar.dur(b.interrupt);
    ar.dur(b.data_transfer);
    ar.dur(b.computation);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, core::OffloadPlan> p) {
    keyed(ar, p.decisions);
    ar.size(p.mcu_ram_used);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, core::OffloadDecision> d) {
    ar.boolean(d.offload);
    ar.str(d.reason);
  }

  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, env::AvailabilityStats> a) {
    ar.boolean(a.modeled);
    ar.boolean(a.power_limited);
    ar.u64(a.reboots);
    ar.u64(a.windows_lost);
    ar.u64(a.samples_lost_faults);
    ar.u64(a.samples_lost_outage);
    ar.u64(a.samples_lost_crash);
    ar.dur(a.downtime);
    ar.f64(a.uptime_fraction);
    ar.f64(a.harvested_j);
    ar.f64(a.billed_j);
    ar.f64(a.stored_j);
  }

  // Map keys and values that are not structs.
  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, apps::AppId> id) {
    ar.enum_u8(id);
  }
  template <class Ar>
  static void walk(Ar& ar, Ref<Ar, std::string> s) {
    ar.str(s);
  }

  /// A count, then each element. Reading bounds the count by the bytes left
  /// and stops at the first failed read.
  template <class Ar, class V>
  static void seq(Ar& ar, V& v) {
    if constexpr (kReading<Ar>) {
      const std::size_t n = ar.count();
      v.reserve(n);
      for (std::size_t i = 0; i < n && ar.ok(); ++i) walk(ar, v.emplace_back());
    } else {
      ar.size(v.size());
      for (const auto& x : v) walk(ar, x);
    }
  }

  /// A count, then each key and its value, in key order.
  template <class Ar, class M>
  static void keyed(Ar& ar, M& m) {
    if constexpr (kReading<Ar>) {
      const std::size_t n = ar.count();
      for (std::size_t i = 0; i < n && ar.ok(); ++i) {
        typename M::key_type key{};
        walk(ar, key);
        walk(ar, m[std::move(key)]);
      }
    } else {
      ar.size(m.size());
      for (const auto& [key, x] : m) {
        walk(ar, key);
        walk(ar, x);
      }
    }
  }

  /// A presence flag, then the pointee when present.
  template <class Ar, class P>
  static void nullable(Ar& ar, P& p) {
    bool present = p != nullptr;
    ar.boolean(present);
    if constexpr (kReading<Ar>) {
      if (present) p = std::make_shared<typename P::element_type>();
    }
    if (present) walk(ar, *p);
  }
};

namespace {

std::uint32_t crc_of(std::string_view bytes) {
  return codecs::util::crc32(
      std::span{reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

}  // namespace

std::string encode_result(const core::ScenarioResult& result) {
  ByteWriter w;
  w.u32(kResultCodecMagic);
  w.u32(kResultCodecVersion);
  ResultCodec::walk(w, result);
  const std::uint32_t crc = crc_of(w.bytes());
  w.u32(crc);
  return std::move(w).take();
}

std::optional<core::ScenarioResult> decode_result(std::string_view bytes) {
  // Header (magic + version) plus the CRC trailer is the minimum envelope.
  if (bytes.size() < 12) return std::nullopt;
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  std::uint32_t crc = 0;
  ByteReader{bytes.substr(bytes.size() - 4)}.u32(crc);
  if (crc != crc_of(body)) return std::nullopt;

  ByteReader r{body};
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  r.u32(magic);
  r.u32(version);
  if (magic != kResultCodecMagic || version != kResultCodecVersion) return std::nullopt;

  core::ScenarioResult out;
  ResultCodec::walk(r, out);
  // A well-formed entry is consumed exactly; trailing bytes mean the
  // payload was produced by a different (future) layout — treat as a miss.
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return out;
}

}  // namespace iotsim::cache
