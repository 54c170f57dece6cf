// Reproduces paper Fig. 4: coverage speedup (x) and coverage increment (%)
// of each MABFuzz variant (plus the Thompson extension) over TheHuzz on
// the three cores.
//
//   speedup   = tests(TheHuzz -> its final coverage)
//             / tests(MABFuzz -> the same coverage)
//   increment = (final(MABFuzz) - final(TheHuzz)) / final(TheHuzz) * 100
//
// One trial matrix per core — (TheHuzz + every MABFuzz variant) × runs —
// run by the experiment engine; both Fig. 4 metrics come straight from the
// engine's pairwise report over the run-averaged curves.
//
// Usage:
//   fig4_speedup_increment [--tests N] [--runs R] [--samples K] [--seed S]
//                          [--workers W]
// Paper scale: --tests 50000 --runs 3.

#include <algorithm>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"

namespace {

using namespace mabfuzz;

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::uint64_t max_tests = args.get_uint("tests", 4000);
  const std::uint64_t runs = std::max<std::uint64_t>(1, args.get_uint("runs", 2));
  const std::uint64_t samples = args.get_uint("samples", 50);
  const std::uint64_t seed = args.get_uint("seed", 1);
  const auto workers = args.get_unsigned("workers", 0);

  const std::uint64_t sample_every = std::max<std::uint64_t>(1, max_tests / samples);

  std::cout << "=== Fig. 4: coverage speedup and increment vs TheHuzz ===\n"
            << "(" << runs << " runs averaged; " << max_tests << " tests)\n\n";

  std::vector<harness::Fig4Row> rows;
  double exp3_speedup_sum = 0;
  double exp3_increment_sum = 0;

  for (const soc::CoreKind core : soc::kAllCores) {
    harness::TrialMatrix matrix;
    matrix.base.core = core;
    matrix.base.bugs = soc::BugSet::none();
    matrix.base.max_tests = max_tests;
    matrix.base.rng_seed = seed;
    matrix.base.snapshot_every = sample_every;
    matrix.fuzzers.assign(harness::kAllPolicies.begin(),
                          harness::kAllPolicies.end());
    matrix.trials = runs;

    harness::ExperimentOptions options;
    options.workers = workers;
    const harness::ExperimentResult result =
        harness::Experiment(matrix, options).run();
    if (harness::report_failures(std::cerr, result) != 0) {
      return 1;  // never print figure numbers computed from partial data
    }
    const harness::SpeedupReport report =
        harness::speedup_report(result, "thehuzz");

    harness::Fig4Row row;
    row.core = std::string(soc::core_display_name(core));
    for (const harness::SpeedupReport::Row& speedup : report.rows) {
      row.speedup[speedup.fuzzer] = speedup.coverage_speedup;
      row.increment_percent[speedup.fuzzer] = speedup.increment_percent;
      if (speedup.fuzzer == "exp3") {
        exp3_speedup_sum += speedup.coverage_speedup / 3.0;
        exp3_increment_sum += speedup.increment_percent / 3.0;
      }
    }
    rows.push_back(row);
    const harness::CellStats& base = *result.find_cell("thehuzz");
    std::cout << "  [" << soc::core_display_name(core)
              << "] TheHuzz final coverage: "
              << common::format_double(base.mean_curve.final_covered, 1) << " / "
              << base.mean_curve.universe << " points\n";
  }

  std::cout << "\n";
  harness::render_fig4(std::cout, rows);

  std::cout << "\nMABFuzz:EXP3 cross-core means: coverage speedup "
            << common::format_speedup(exp3_speedup_sum) << ", increment "
            << common::format_double(exp3_increment_sum, 2)
            << "% (paper: 3.05x / +0.68% at 50K-test scale)\n";
  return 0;
}
