// Ablation benches for the design choices the paper fixes empirically in
// Sec. IV-A: the reward mix alpha (0.25), the reset threshold gamma (3),
// the number of arms (10) and the EXP3 learning rate eta (0.1). Each sweep
// is one declarative trial matrix — the swept knob is the variant axis
// ("alpha=0.5" etc.), run by the experiment engine — reporting mean final
// coverage on CVA6 (the hard core) under MABFuzz:UCB, except the eta
// sweep, which uses EXP3.
//
// Usage:
//   ablation_alpha_gamma [--tests N] [--runs R] [--seed S] [--workers W]

#include <algorithm>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/experiment.hpp"

namespace {

using namespace mabfuzz;

struct Sweep {
  std::string title;
  std::string fuzzer;
  std::string knob;
  std::vector<std::string> values;
  // Optional per-value note column ("" for none).
  std::vector<std::string> notes;
};

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::uint64_t max_tests = args.get_uint("tests", 1500);
  const std::uint64_t runs = std::max<std::uint64_t>(1, args.get_uint("runs", 2));
  const std::uint64_t seed = args.get_uint("seed", 1);
  const auto workers = args.get_unsigned("workers", 0);

  std::cout << "=== Ablations over MABFuzz parameters (CVA6, "
            << max_tests << " tests, " << runs << " runs) ===\n\n";

  const std::vector<Sweep> sweeps = {
      {"Reward mix alpha (paper: 0.25 — global novelty weighted 3x)",
       "ucb", "alpha", {"0", "0.25", "0.5", "0.75", "1"}, {}},
      {"Reset threshold gamma (paper: 3)",
       "ucb", "gamma", {"0", "1", "3", "5", "10"},
       {"no resets (preliminary formulation)", "", "", "", ""}},
      {"Number of arms (paper: 10)", "ucb", "arms", {"4", "10", "20"}, {}},
      {"EXP3 learning rate eta (paper: 0.1)",
       "exp3", "eta", {"0.01", "0.1", "0.5"}, {}},
  };

  for (const Sweep& sweep : sweeps) {
    harness::TrialMatrix matrix;
    matrix.base.core = soc::CoreKind::kCva6;
    matrix.base.bugs = soc::BugSet::none();
    matrix.base.fuzzer = sweep.fuzzer;
    matrix.base.max_tests = max_tests;
    matrix.base.rng_seed = seed;
    matrix.trials = runs;
    for (const std::string& value : sweep.values) {
      matrix.variants.push_back({value, {sweep.knob + "=" + value}});
    }

    harness::ExperimentOptions options;
    options.workers = workers;
    const harness::ExperimentResult result =
        harness::Experiment(matrix, options).run();
    if (harness::report_failures(std::cerr, result) != 0) {
      return 1;  // never print sweep rows computed from partial data
    }

    const bool with_notes = !sweep.notes.empty();
    common::Table t(with_notes
                        ? std::vector<std::string>{sweep.knob,
                                                   "mean final covered points",
                                                   "note"}
                        : std::vector<std::string>{
                              sweep.knob, "mean final covered points"});
    for (std::size_t i = 0; i < sweep.values.size(); ++i) {
      const harness::CellStats* cell =
          result.find_cell(sweep.fuzzer, sweep.values[i]);
      std::vector<std::string> row = {
          sweep.values[i], common::format_double(cell->covered.mean, 1)};
      if (with_notes) {
        row.push_back(sweep.notes[i]);
      }
      t.add_row(std::move(row));
    }
    std::cout << sweep.title << "\n";
    t.render(std::cout);
    std::cout << "\n";
  }
  return 0;
}
