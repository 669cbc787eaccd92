// Umbrella header: the library's public surface in one include.
//
//   #include "iotsim.h"
//
//   iotsim::core::Scenario sc;
//   sc.app_ids = {iotsim::apps::AppId::kA2StepCounter};
//   sc.scheme = iotsim::core::Scheme::kCom;
//   const auto result = iotsim::core::run_scenario(sc);
//
// Sub-headers remain individually includable for faster builds.
#pragma once

// Simulation kernel.
#include "sim/join.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"

// Energy accounting.
#include "energy/battery.h"
#include "energy/energy_accountant.h"
#include "energy/energy_report.h"
#include "energy/power_model.h"
#include "energy/power_state_machine.h"
#include "energy/routine.h"

// Tracing & reporting.
#include "trace/ascii_chart.h"
#include "trace/csv_writer.h"
#include "trace/memory_profiler.h"
#include "trace/mips_counter.h"
#include "trace/power_trace.h"
#include "trace/table_printer.h"

// Shared-medium network layer.
#include "net/config.h"
#include "net/medium.h"
#include "net/shared_access_point.h"

// Hardware models.
#include "hw/boards.h"
#include "hw/bus.h"
#include "hw/cpu.h"
#include "hw/interrupt_controller.h"
#include "hw/iot_hub.h"
#include "hw/mcu.h"
#include "hw/nic.h"
#include "hw/processor.h"

// Sensors & the synthetic world.
#include "sensors/sample.h"
#include "sensors/sensor.h"
#include "sensors/sensor_catalog.h"
#include "sensors/signal_generators.h"

// Protocol & media codecs.
#include "codecs/coap/coap_codec.h"
#include "codecs/coap/coap_client.h"
#include "codecs/coap/coap_server.h"
#include "codecs/fingerprint/matcher.h"
#include "codecs/jpeg/jpeg_decoder.h"
#include "codecs/jpeg/jpeg_encoder.h"
#include "codecs/json/json_parser.h"
#include "codecs/json/json_writer.h"
#include "codecs/util/base64.h"
#include "codecs/util/checksum.h"

// Signal processing.
#include "dsp/dtw.h"
#include "dsp/fft.h"
#include "dsp/filters.h"
#include "dsp/mfcc.h"
#include "dsp/pan_tompkins.h"
#include "dsp/peak_detect.h"
#include "dsp/sta_lta.h"

// Workloads.
#include "apps/iot_app.h"
#include "apps/workload_spec.h"

// Persistent result cache (the sweep's disk tier).
#include "cache/result_cache.h"
#include "cache/result_codec.h"

// The paper's schemes.
#include "core/hub_runtime.h"
#include "core/offload_planner.h"
#include "core/qos.h"
#include "core/reports.h"
#include "core/result_json.h"
#include "core/scenario.h"
#include "core/scenario_runner.h"
#include "core/scheme.h"
#include "core/sweep.h"
#include "core/thread_pool.h"
