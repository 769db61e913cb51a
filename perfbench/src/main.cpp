// perfbench: one measured end-to-end run of a named workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--misalignment <e_d>]
//
// Prints human-readable notes, a `host` line, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones from a traced run. Exits non-zero when any correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// The host the numbers were measured on: cores, the ISA flags the
/// library's kernels dispatch on, compiler and build type.
std::string host_record() {
  std::string model = "unknown";
  std::set<std::string> flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) {
      std::istringstream words(value);
      std::string flag;
      while (words >> flag) {
        if (flag == "sse4_2" || flag == "avx" || flag == "avx2" ||
            flag == "avx512f" || flag == "avx512bw" || flag == "bmi2" ||
            flag == "pclmulqdq" || flag == "vpclmulqdq" || flag == "popcnt" ||
            flag == "neon" || flag == "asimd") {
          flags.insert(flag);
        }
      }
    }
  }
  std::string isa;
  for (const auto& flag : flags) isa += (isa.empty() ? "" : " ") + flag;
  std::string out = "{\"cores\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"cpu\":\"" + json_escape(model) + "\",\"isa\":\"" +
                    isa + "\",\"compiler\":\"" + json_escape(__VERSION__) +
                    "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--misalignment <e_d>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = perfbench::now_ns();
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--misalignment") {
      config.misalignment = std::strtod(value.c_str(), nullptr);
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || !(config.seconds > 0)) return usage();

  perfbench::RunOutput out;
  try {
    out = perfbench::run_workload(config, process_start);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }

  for (const auto& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const auto& failure : out.checks.failures()) {
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("host %s\n", host_record().c_str());
  std::string metrics;
  char value[64];
  for (const auto& metric : out.metrics) {
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    metrics += (metrics.empty() ? "\"" : ",\"") + metric.name +
               "\":{\"value\":" + value + ",\"unit\":\"" + metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.checks.passed() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.checks.passed() ? 0 : 1;
}
