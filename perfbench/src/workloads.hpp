// The benchmark's workloads and the one path they all time:
//
//   pre-generated detections -> PostprocessEngine::process_block, or
//   run_alice_session/run_bob_session over Authenticated(Reliable(pair))
//   -> KeyStore::deposit -> ETSI enc_keys (master) / dec_keys (slave) as
//   JSON text through api::Dispatcher::dispatch(std::string_view).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Overrides every link's misalignment (intrinsic QBER) when >= 0. For
  /// reproducing observations at other QBERs; the workloads leave it unset.
  double misalignment = -1.0;
  /// Where the traced run writes its Chrome trace-event file.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< blocks + enc_keys + dec_keys requests
  std::uint64_t failed = 0;     ///< aborted blocks + refused requests
  Checks checks;
  std::vector<std::string> notes;  ///< human-readable summary lines
};

/// Runs one workload end to end. Throws std::invalid_argument on an
/// unknown workload name.
RunOutput run_workload(const RunConfig& config, std::int64_t process_start_ns);

}  // namespace perfbench
