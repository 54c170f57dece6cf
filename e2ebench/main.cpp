// e2ebench: the end-to-end campaign benchmark binary.
//
//   e2ebench --workload clean-sweep|bug-hunt|service-resume --seed N
//            --trace 0|1 --workdir DIR [--trace-out FILE]
//
// Prints human-readable lines, then one JSON object as the last line of
// stdout. With --trace 0 it is the raw samples of one round, which
// run.py merges across processes into the end-to-end metrics. With
// --trace 1 it is the per-layer result: {"correct", "attempted",
// "failed", "metrics"}. Normally launched through run.py, which builds it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "e2e.hpp"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: e2ebench --workload clean-sweep|bug-hunt|service-resume "
               "--seed N --trace 0|1 --workdir DIR [--trace-out FILE]\n",
               error.c_str());
  std::exit(2);
}

e2ebench::Options parse(int argc, char** argv) {
  e2ebench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--workdir") {
        o.workdir = value;
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + std::string(flag));
    }
  }
  if (o.workload.empty() || o.workdir.empty()) {
    usage("--workload and --workdir are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const e2ebench::Options options = parse(argc, argv);
  e2ebench::Report report;
  try {
    std::filesystem::create_directories(options.workdir);
    report = e2ebench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  for (const std::string& line : report.lines) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& failure : report.ledger.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  if (!options.trace && !report.sample_json.empty()) {
    std::printf("%s\n", report.sample_json.c_str());
    return 0;
  }
  if (!options.trace || report.metrics.empty()) {
    std::fprintf(stderr, "e2ebench: %s produced no measurement\n", options.workload.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.ledger.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.ledger.attempted()),
              static_cast<unsigned long long>(report.ledger.failed()));
  const char* sep = "";
  for (const e2ebench::Metric& m : report.metrics) {
    // JSON has no inf/nan; such a value would mean a broken measurement.
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(), value,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
