// Table I — Specifications of the ten sensors.
#include "bench_util.h"

using namespace iotsim;

int main(int argc, char** argv) {
  // No sweep here; parsing the shared flags still gives this target the
  // standard flag surface (--help, exit 2 on a bad flag).
  (void)bench::parse_options(argc, argv);
  std::cout << "=== Table I: sensor specifications ===\n\n";
  trace::TablePrinter t{{"No.", "Sensor", "Bus", "Read (ms)", "Pwr typ (mW)", "Output",
                         "Bytes", "Max rate (Hz)", "QoS rate (Hz)", "MCU-friendly"}};
  for (auto id : sensors::kAllSensors) {
    const auto& s = sensors::spec_of(id);
    using TP = trace::TablePrinter;
    t.add_row({s.id, s.name, std::string{to_string(s.bus)}, TP::num(s.read_time.to_ms(), 4),
               TP::num(s.power_typ_mw, 4), s.output_type, std::to_string(s.sample_bytes),
               TP::num(s.max_rate_hz, 4), TP::num(s.qos_rate_hz, 4),
               s.mcu_friendly ? "yes" : "no"});
  }
  std::cout << t.render() << '\n';

  // Exercise each sensor's generator once and show a real sample.
  std::cout << "one live sample from each generator (t = 0.5 s):\n";
  sim::Rng rng{7};
  for (auto id : sensors::kAllSensors) {
    auto sensor = sensors::make_sensor(id, rng, bench::active_world());
    const auto sample = sensor->read(sim::SimTime::origin() + sim::Duration::from_ms(500));
    std::cout << "  " << sensor->spec().id << " " << sensor->spec().name << ": ";
    if (!sample.blob.empty()) {
      std::cout << "blob of " << sample.blob.size() << " bytes";
    } else {
      for (double v : sample.channels) std::cout << v << ' ';
    }
    std::cout << '\n';
  }
  return 0;
}
