// Ablation of the Sec. V extensions implemented beyond the paper's
// evaluation: MAB-driven mutation-operator selection, MAB-driven seed
// length selection, and the Thompson-sampling bandit. Baseline is
// MABFuzz:UCB with the paper's static operator distribution and fixed
// 20-instruction seeds, on CVA6 (the hard core). The whole ablation is one
// declarative trial matrix — each variant is a set of config overrides on
// the shared base — run by the experiment engine.
//
// Usage:
//   ablation_extensions [--tests N] [--runs R] [--seed S] [--workers W]

#include <algorithm>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"

namespace {

using namespace mabfuzz;

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::uint64_t tests = args.get_uint("tests", 2000);
  const std::uint64_t runs = std::max<std::uint64_t>(1, args.get_uint("runs", 2));
  const std::uint64_t seed = args.get_uint("seed", 1);
  const auto workers = args.get_unsigned("workers", 0);

  harness::TrialMatrix matrix;
  matrix.base.core = soc::CoreKind::kCva6;
  matrix.base.bugs = soc::BugSet::none();
  matrix.base.fuzzer = "ucb";
  matrix.base.max_tests = tests;
  matrix.base.rng_seed = seed;
  matrix.trials = runs;
  matrix.variants = {
      {"MABFuzz:UCB (paper formulation)", {}},
      {"+ MAB operator selection", {"adaptive-ops=true"}},
      {"+ MAB seed-length selection", {"adaptive-length=true"}},
      {"+ both extensions", {"adaptive-ops=true", "adaptive-length=true"}},
      {"Thompson-sampling scheduler", {"fuzzer=thompson"}},
  };

  std::cout << "=== Sec. V extensions ablation (CVA6, " << tests << " tests, "
            << runs << " runs) ===\n\n";

  harness::ExperimentOptions options;
  options.workers = workers;
  const harness::ExperimentResult result =
      harness::Experiment(matrix, options).run();
  if (harness::report_failures(std::cerr, result) != 0) {
    return 1;  // never print ablation rows computed from partial data
  }

  common::Table table({"variant", "mean covered points", "vs baseline"});
  double baseline = 0.0;
  for (const harness::CellStats& cell : result.cells) {
    if (baseline == 0.0) {
      baseline = cell.covered.mean;
    }
    table.add_row({cell.variant, common::format_double(cell.covered.mean, 1),
                   common::format_double((cell.covered.mean / baseline - 1.0) * 100,
                                         2) +
                       "%"});
  }
  table.render(std::cout);
  std::cout << "\n(The paper evaluates none of these; they are the Sec. V "
               "future-work avenues, implemented.)\n";
  return 0;
}
