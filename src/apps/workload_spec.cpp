#include "apps/workload_spec.h"

#include <array>
#include <cassert>

namespace iotsim::apps {

using sensors::SensorId;
using sim::Duration;

int WorkloadSpec::interrupts_per_window() const {
  int n = 0;
  for (SensorId s : sensor_ids) n += sensors::spec_of(s).samples_per_window();
  return n;
}

std::size_t WorkloadSpec::sensor_bytes_per_window() const {
  std::size_t bytes = 0;
  for (SensorId s : sensor_ids) {
    const auto& spec = sensors::spec_of(s);
    bytes += static_cast<std::size_t>(spec.samples_per_window()) * spec.sample_bytes;
  }
  return bytes;
}

namespace {

std::array<WorkloadSpec, kAppCount> build_specs() {
  std::array<WorkloadSpec, kAppCount> specs;
  auto& a1 = specs[0];
  a1.id = AppId::kA1CoapServer;
  a1.code = "A1";
  a1.name = "CoAP Server";
  a1.category = "Building Automation";
  a1.user_task = "Constrained Application Protocol";
  a1.sensor_ids = {SensorId::kS7Light, SensorId::kS8Sound};
  a1.cpu_compute = Duration::from_ms(3.0);
  a1.mcu_compute = Duration::from_ms(18.0);
  a1.fig6_mips = 48.0;
  a1.fig6_heap_bytes = 24600;
  a1.fig6_stack_bytes = 384;
  a1.scratch_heap_bytes = 9 * 1024;
  a1.result_bytes = 64;
  a1.memory_footprint_bytes = 8 * 1024;
  a1.net = NetProfile{2400, 600, 1, Duration::from_ms(40.0)};  // LAN clients

  auto& a2 = specs[1];
  a2.id = AppId::kA2StepCounter;
  a2.code = "A2";
  a2.name = "Step counter";
  a2.category = "Health Care";
  a2.user_task = "Step-detection Algorithm";
  a2.sensor_ids = {SensorId::kS4Accelerometer};
  a2.cpu_compute = Duration::from_ms(2.21);  // Fig. 8
  a2.mcu_compute = Duration::from_ms(21.7);  // Fig. 8
  a2.fig6_mips = 3.94;                       // Fig. 6
  a2.fig6_heap_bytes = 19400;
  a2.fig6_stack_bytes = 352;
  a2.scratch_heap_bytes = 3900;
  a2.result_bytes = 8;
  a2.memory_footprint_bytes = 6 * 1024;

  auto& a3 = specs[2];
  a3.id = AppId::kA3ArduinoJson;
  a3.code = "A3";
  a3.name = "arduinoJSON";
  a3.category = "Protocol Library";
  a3.user_task = "JSON Formatting";
  a3.sensor_ids = {SensorId::kS1Barometer, SensorId::kS2Temperature};
  a3.cpu_compute = Duration::from_ms(0.45);  // §IV-F
  a3.mcu_compute = Duration::from_ms(7.0);   // §IV-F
  a3.fig6_mips = 8.0;
  a3.fig6_heap_bytes = 21900;
  a3.fig6_stack_bytes = 420;
  a3.scratch_heap_bytes = 21 * 1024;
  a3.result_bytes = 256;
  a3.memory_footprint_bytes = 12 * 1024;

  auto& a4 = specs[3];
  a4.id = AppId::kA4M2x;
  a4.code = "A4";
  a4.name = "M2X";
  a4.category = "Cloud Communication";
  a4.user_task = "Cloud Interfacing with AT&T";
  a4.sensor_ids = {SensorId::kS1Barometer, SensorId::kS2Temperature,
                   SensorId::kS4Accelerometer, SensorId::kS5AirQuality, SensorId::kS7Light};
  a4.cpu_compute = Duration::from_ms(6.5);
  a4.mcu_compute = Duration::from_ms(40.0);
  a4.fig6_mips = 60.0;
  a4.fig6_heap_bytes = 29800;
  a4.fig6_stack_bytes = 450;
  a4.scratch_heap_bytes = 1024;
  a4.result_bytes = 128;
  a4.memory_footprint_bytes = 8 * 1024;
  // HTTPS session to the AT&T cloud: handshake + POST + ack.
  a4.net = NetProfile{60 * 1024, 2 * 1024, 2, Duration::from_ms(250.0)};

  auto& a5 = specs[4];
  a5.id = AppId::kA5Blynk;
  a5.code = "A5";
  a5.name = "Blynk";
  a5.category = "Smartphone Interactions";
  a5.user_task = "Platform interacting with Smartphones";
  a5.sensor_ids = {SensorId::kS1Barometer, SensorId::kS2Temperature,
                   SensorId::kS4Accelerometer, SensorId::kS5AirQuality, SensorId::kS10Camera};
  a5.cpu_compute = Duration::from_ms(8.0);
  a5.mcu_compute = Duration::from_ms(52.0);
  a5.fig6_mips = 65.0;
  a5.fig6_heap_bytes = 33100;
  a5.fig6_stack_bytes = 460;
  a5.scratch_heap_bytes = 4 * 1024;
  a5.result_bytes = 256;
  a5.memory_footprint_bytes = 10 * 1024;
  a5.net = NetProfile{26 * 1024, 1024, 2, Duration::from_ms(40.0)};  // phone on LAN

  auto& a6 = specs[5];
  a6.id = AppId::kA6Dropbox;
  a6.code = "A6";
  a6.name = "Dropbox Manager";
  a6.category = "Web Control";
  a6.user_task = "File Sync, Upload, etc.";
  a6.sensor_ids = {SensorId::kS8Sound, SensorId::kS9Distance};
  a6.cpu_compute = Duration::from_ms(5.0);
  a6.mcu_compute = Duration::from_ms(32.0);
  a6.fig6_mips = 55.0;
  a6.fig6_heap_bytes = 27400;
  a6.fig6_stack_bytes = 400;
  a6.scratch_heap_bytes = 12 * 1024;
  a6.result_bytes = 96;
  a6.memory_footprint_bytes = 8 * 1024;
  a6.net = NetProfile{14 * 1024, 2 * 1024, 2, Duration::from_ms(250.0)};  // cloud sync

  auto& a7 = specs[6];
  a7.id = AppId::kA7Earthquake;
  a7.code = "A7";
  a7.name = "Earthquake Detection";
  a7.category = "Smart City";
  a7.user_task = "Earthquake Predicting Algorithm";
  a7.sensor_ids = {SensorId::kS4Accelerometer};
  a7.cpu_compute = Duration::from_ms(4.0);
  a7.mcu_compute = Duration::from_ms(26.0);
  a7.fig6_mips = 50.9;
  a7.fig6_heap_bytes = 16800;  // Fig. 6 minimum
  a7.fig6_stack_bytes = 340;
  a7.scratch_heap_bytes = 9 * 1024;
  a7.result_bytes = 24;
  a7.memory_footprint_bytes = 5 * 1024;
  // Real-time verification against public earthquake APIs (§IV-E1).
  a7.net = NetProfile{512, 2048, 1, Duration::from_ms(300.0)};

  auto& a8 = specs[7];
  a8.id = AppId::kA8Heartbeat;
  a8.code = "A8";
  a8.name = "Heartbeat Irregularity Detection";
  a8.category = "Health Care";
  a8.user_task = "ECG Feature-extraction";
  a8.sensor_ids = {SensorId::kS6Pulse};
  a8.cpu_compute = Duration::from_ms(4.5);
  // Deliberately MCU-heavy (the paper's Fig. 13 shows A8 *slows down* under
  // COM: the Pan–Tompkins chain is float-heavy and the L106 has no FPU).
  a8.mcu_compute = Duration::from_ms(343.0);
  a8.fig6_mips = 108.8;  // Fig. 6's compute-heaviest app
  a8.fig6_heap_bytes = 22600;
  a8.fig6_stack_bytes = 420;
  a8.scratch_heap_bytes = 15 * 1024;
  a8.result_bytes = 32;
  a8.memory_footprint_bytes = 9 * 1024;

  auto& a9 = specs[8];
  a9.id = AppId::kA9JpegDecoder;
  a9.code = "A9";
  a9.name = "JPEG Decoder";
  a9.category = "Security";
  a9.user_task = "Inverse Discrete Cosine Transform (IDCT)";
  a9.sensor_ids = {SensorId::kS10Camera};
  a9.cpu_compute = Duration::from_ms(20.0);
  a9.mcu_compute = Duration::from_ms(120.0);
  a9.fig6_mips = 35.0;
  a9.fig6_heap_bytes = 36300;  // Fig. 6 maximum
  a9.fig6_stack_bytes = 512;
  a9.scratch_heap_bytes = 16 * 1024;
  a9.result_bytes = 48;
  a9.memory_footprint_bytes = 22 * 1024;  // strip-buffered decode fits the ESP8266

  auto& a10 = specs[9];
  a10.id = AppId::kA10Fingerprint;
  a10.code = "A10";
  a10.name = "Fingerprint Register";
  a10.category = "Security";
  a10.user_task = "Fingerprint Enroll, Identify, etc";
  a10.sensor_ids = {SensorId::kS3Fingerprint};
  a10.cpu_compute = Duration::from_ms(18.0);
  a10.mcu_compute = Duration::from_ms(12.0);
  a10.fig6_mips = 22.0;
  a10.fig6_heap_bytes = 26100;
  a10.fig6_stack_bytes = 380;
  a10.scratch_heap_bytes = 25600;  // enrolment database
  a10.result_bytes = 16;
  a10.memory_footprint_bytes = 25 * 1024;

  auto& a11 = specs[10];
  a11.id = AppId::kA11SpeechToText;
  a11.code = "A11";
  a11.name = "Speech-To-Text";
  a11.category = "Smart City";
  a11.user_task = "Voice-to-text conversion";
  a11.sensor_ids = {SensorId::kS8Sound};
  // §IV-E3: 4683 MIPS sustained ⇒ the kernel occupies most of the window.
  a11.cpu_compute = Duration::from_ms(740.0);
  a11.mcu_compute = Duration::zero();  // not offloadable
  a11.fig6_mips = 4683.0;
  a11.fig6_heap_bytes = 1'430'000'000;  // 1.43 GB acoustic model
  a11.fig6_stack_bytes = 2048;
  a11.scratch_heap_bytes = 8 * 1024;
  a11.result_bytes = 256;
  a11.memory_footprint_bytes = 1'430'000'000;

  return specs;
}

const std::array<WorkloadSpec, kAppCount>& specs() {
  static const auto s = build_specs();
  return s;
}

}  // namespace

const WorkloadSpec& spec_of(AppId id) {
  const auto idx = static_cast<std::size_t>(id);
  assert(idx < kAppCount);
  return specs()[idx];
}

std::string_view code_of(AppId id) { return spec_of(id).code; }

}  // namespace iotsim::apps
