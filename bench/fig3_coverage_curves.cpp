// Reproduces paper Fig. 3: branch coverage vs number of tests for
// TheHuzz and the MABFuzz variants (plus the Thompson extension) on CVA6,
// Rocket Core and BOOM (run-averaged curves, printed as a series table
// plus an ASCII plot per core, the same panels as the figure).
//
// One trial matrix per core (every policy × runs); the plotted curves are
// the experiment engine's per-cell run-averaged coverage curves.
//
// Usage:
//   fig3_coverage_curves [--tests N] [--runs R] [--samples K] [--seed S]
//                        [--core cva6|rocket|boom] [--workers W] [--csv]
// Paper scale: --tests 50000 --runs 3.

#include <algorithm>
#include <iostream>
#include <map>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"

namespace {

using namespace mabfuzz;
using harness::CoverageCurve;

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::uint64_t max_tests = args.get_uint("tests", 4000);
  const std::uint64_t runs = std::max<std::uint64_t>(1, args.get_uint("runs", 2));
  const std::uint64_t samples = args.get_uint("samples", 20);
  const std::uint64_t seed = args.get_uint("seed", 1);
  const auto workers = args.get_unsigned("workers", 0);
  const bool csv = args.get_bool("csv", false);
  const std::string only_core = args.get_string("core", "");

  const std::uint64_t sample_every = std::max<std::uint64_t>(1, max_tests / samples);

  std::cout << "=== Fig. 3: branch coverage achieved by MABFuzz vs TheHuzz ===\n"
            << "(" << runs << " runs averaged; " << max_tests
            << " tests; sampled every " << sample_every << ")\n\n";

  common::Table csv_table({"core", "fuzzer", "tests", "covered"});

  for (const soc::CoreKind core : soc::kAllCores) {
    if (!only_core.empty() && only_core != soc::core_name(core)) {
      continue;
    }
    harness::TrialMatrix matrix;
    matrix.base.core = core;
    matrix.base.bugs = soc::BugSet::none();  // coverage experiments: clean cores
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
      return 1;  // never plot curves averaged over partial data
    }

    std::map<std::string, CoverageCurve> curves;
    for (const harness::CellStats& cell : result.cells) {
      curves[cell.fuzzer] = cell.mean_curve;
      for (std::size_t i = 0; i < cell.mean_curve.grid.size(); ++i) {
        csv_table.add_row({std::string(soc::core_name(core)), cell.fuzzer,
                           std::to_string(cell.mean_curve.grid[i]),
                           common::format_double(cell.mean_curve.covered[i], 1)});
      }
    }
    harness::render_fig3(std::cout, soc::core_display_name(core), curves);
    std::cout << "\n";
  }

  if (csv) {
    std::cout << "--- CSV ---\n";
    csv_table.render_csv(std::cout);
  }
  return 0;
}
