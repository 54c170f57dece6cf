#include "harness/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "fuzz/corpus.hpp"
#include "harness/worker_pool.hpp"

namespace mabfuzz::harness {

// --- matrix expansion -----------------------------------------------------------

std::vector<TrialSpec> TrialMatrix::expand() const {
  const std::vector<std::string> fuzzer_axis =
      fuzzers.empty() ? std::vector<std::string>{base.fuzzer} : fuzzers;
  const std::vector<TrialVariant> variant_axis =
      variants.empty() ? std::vector<TrialVariant>{TrialVariant{}} : variants;

  std::vector<TrialSpec> specs;
  specs.reserve(fuzzer_axis.size() * variant_axis.size() * trials);
  // Cells sharing a corpus_out target feed one post-barrier merge; every
  // contributor must run the same core, or the fold would reject (or,
  // worse, silently mix) incompatible coverage universes. A plain vector:
  // artifact-path code bans unordered containers, and targets are few.
  std::vector<std::pair<std::string, soc::CoreKind>> merge_targets;
  for (const std::string& fuzzer : fuzzer_axis) {
    for (const TrialVariant& variant : variant_axis) {
      CampaignConfig cell_base = base;
      cell_base.fuzzer = fuzzer;
      // Overrides parse with the cell's fuzzer/core as the base, so
      // core-relative values ("bugs=default") resolve correctly; a
      // malformed override throws here, before any trial runs.
      const CampaignConfig cell_config =
          CampaignConfig::from_pairs(variant.overrides, cell_base);
      // corpus_out in a matrix means sharded federation: each trial writes
      // its own `<target>.shard-<index>` store (no two trials share a
      // file) and Experiment::run() merges the shards into `target` after
      // the pool drains. Validate the destination and the cross-cell core
      // agreement here, before any trial burns its budget.
      if (!cell_config.corpus_out.empty()) {
        validate_output_directory(cell_config.corpus_out, "matrix corpus_out");
        const auto known = std::find_if(
            merge_targets.begin(), merge_targets.end(),
            [&](const auto& t) { return t.first == cell_config.corpus_out; });
        if (known == merge_targets.end()) {
          merge_targets.emplace_back(cell_config.corpus_out, cell_config.core);
        } else if (known->second != cell_config.core) {
          throw std::invalid_argument(
              "TrialMatrix: corpus_out '" + cell_config.corpus_out +
              "' is shared by cells targeting different cores ('" +
              std::string(soc::core_name(known->second)) + "' vs '" +
              std::string(soc::core_name(cell_config.core)) +
              "'); per-core stores cannot merge");
        }
      }
      for (std::uint64_t r = 0; r < trials; ++r) {
        TrialSpec spec;
        spec.index = specs.size();
        // An override may retarget the fuzzer ("fuzzer=thompson"); the
        // spec reports the policy that actually runs, so artifacts and
        // speedup pairing never mislabel a cell.
        spec.fuzzer = cell_config.fuzzer;
        spec.variant = variant.label;
        spec.run_index = first_run + r;
        spec.config = cell_config;
        spec.config.run_index = spec.run_index;
        if (!cell_config.corpus_out.empty()) {
          // Suffix on the matrix-wide trial index, not run_index: two
          // cells sharing a target also share the run_index range, and
          // shard paths must never collide.
          spec.corpus_merge_out = cell_config.corpus_out;
          spec.config.corpus_out =
              cell_config.corpus_out + ".shard-" + std::to_string(spec.index);
        }
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

// --- result queries -------------------------------------------------------------

const CellStats* ExperimentResult::find_cell(
    std::string_view fuzzer, std::string_view variant) const noexcept {
  for (const CellStats& cell : cells) {
    if (cell.fuzzer == fuzzer && cell.variant == variant) {
      return &cell;
    }
  }
  return nullptr;
}

SpeedupReport speedup_report(const ExperimentResult& result,
                             std::string_view baseline_fuzzer) {
  std::vector<const CellStats*> baseline_cells;
  for (const CellStats& cell : result.cells) {
    if (cell.fuzzer == baseline_fuzzer) {
      baseline_cells.push_back(&cell);
    }
  }
  if (baseline_cells.empty()) {
    std::string message = "speedup_report: baseline fuzzer '";
    message.append(baseline_fuzzer);
    message += "' has no cells; present fuzzers:";
    for (const CellStats& cell : result.cells) {
      message += ' ';
      message += cell.fuzzer;
    }
    throw std::invalid_argument(message);
  }

  SpeedupReport report;
  report.baseline = std::string(baseline_fuzzer);
  for (const CellStats& cell : result.cells) {
    if (cell.fuzzer == baseline_fuzzer) {
      continue;
    }
    // Pair with the baseline cell of the same variant; a matrix with a
    // single baseline cell pairs everything against it.
    const CellStats* base = nullptr;
    for (const CellStats* candidate : baseline_cells) {
      if (candidate->variant == cell.variant) {
        base = candidate;
        break;
      }
    }
    if (base == nullptr && baseline_cells.size() == 1) {
      base = baseline_cells.front();
    }
    if (base == nullptr) {
      continue;
    }
    SpeedupReport::Row row;
    row.fuzzer = cell.fuzzer;
    row.variant = cell.variant;
    row.mean_speedup = common::speedup_ratio(base->tests.mean, cell.tests.mean);
    row.median_speedup =
        common::speedup_ratio(base->tests.median, cell.tests.median);
    row.coverage_speedup = coverage_speedup(base->mean_curve, cell.mean_curve);
    row.increment_percent =
        coverage_increment_percent(base->mean_curve, cell.mean_curve);
    report.rows.push_back(std::move(row));
  }
  return report;
}

// --- the engine -----------------------------------------------------------------

Experiment::Experiment(TrialMatrix matrix, ExperimentOptions options)
    : options_(options), specs_(matrix.expand()) {}

StopCondition Experiment::stop_condition(const TrialSpec& spec) const {
  if (options_.target_bug) {
    return StopCondition::bug_detected(*options_.target_bug) ||
           StopCondition::max_tests(spec.config.max_tests);
  }
  if (options_.stop_on_all_bugs) {
    return StopCondition::all_bugs_detected() ||
           StopCondition::max_tests(spec.config.max_tests);
  }
  return StopCondition::max_tests(spec.config.max_tests);
}

TrialResult trial_result(const Campaign& campaign, const RunResult& run,
                         std::optional<soc::BugId> target_bug) {
  const CampaignConfig& config = campaign.config();
  TrialResult result;
  result.fuzzer = config.fuzzer;
  result.run_index = config.run_index;
  result.corpus_in = config.corpus_in;
  result.corpus_out = config.corpus_out;
  result.corpus_entries = campaign.corpus_loaded_entries();
  if (campaign.corpus() != nullptr && !config.corpus_out.empty()) {
    result.corpus_out_entries = campaign.corpus()->size();
  }
  result.stop = run.reason;
  result.tests_executed = run.tests_executed;
  result.covered = campaign.covered();
  result.universe = campaign.coverage_universe();
  result.mismatches = campaign.mismatches();
  result.detected_bugs = campaign.detected_bug_count();
  if (target_bug) {
    result.target_detected = campaign.bug_detected(*target_bug);
    result.detection_tests = result.target_detected
                                 ? campaign.first_detection_test(*target_bug)
                                 : config.max_tests;  // right-censored at the cap
  }
  result.elapsed_seconds = run.elapsed_seconds;
  result.curve = curve_from_snapshots(campaign.snapshots());
  result.curve.universe = campaign.coverage_universe();
  return result;
}

TrialResult Experiment::run_trial(const TrialSpec& spec) const {
  TrialResult result;
  try {
    Campaign campaign(spec.config);
    const RunResult run = campaign.run_until(stop_condition(spec));
    campaign.save_corpus();
    result = trial_result(campaign, run, options_.target_bug);
  } catch (const std::exception& e) {
    result.failed = true;
    result.error = e.what();
    // Provenance is config, not outcome: a failed warm-start trial must
    // still be recorded as warm-started (and shard-assigned) in the
    // artifacts.
    result.fuzzer = spec.fuzzer;
    result.run_index = spec.run_index;
    result.corpus_in = spec.config.corpus_in;
    result.corpus_out = spec.config.corpus_out;
    MABFUZZ_WARN() << "trial " << spec.index << " (" << spec.fuzzer
                   << (spec.variant.empty() ? "" : "/" + spec.variant)
                   << ", run " << spec.run_index << ") failed: " << e.what();
  }
  result.index = spec.index;
  result.variant = spec.variant;
  return result;
}

namespace {

/// Run-averaged curve over the successful trials of one cell. The grid is
/// the longest successful trial's grid; each sample averages the trials
/// that reached that grid point (detection-stopped trials contribute their
/// prefix). Iterates in trial-index order — deterministic by construction.
CoverageCurve average_curve(const std::vector<const TrialResult*>& trials) {
  CoverageCurve mean;
  const TrialResult* longest = nullptr;
  for (const TrialResult* trial : trials) {
    if (longest == nullptr ||
        trial->curve.grid.size() > longest->curve.grid.size()) {
      longest = trial;
    }
  }
  if (longest == nullptr || longest->curve.grid.empty()) {
    return mean;
  }
  mean.grid = longest->curve.grid;
  mean.universe = longest->curve.universe;
  mean.covered.assign(mean.grid.size(), 0.0);
  std::vector<std::uint64_t> counts(mean.grid.size(), 0);
  for (const TrialResult* trial : trials) {
    const CoverageCurve& curve = trial->curve;
    for (std::size_t i = 0; i < curve.grid.size() && i < mean.grid.size(); ++i) {
      if (curve.grid[i] != mean.grid[i]) {
        break;  // grids diverged (different snapshot cadence); prefix only
      }
      mean.covered[i] += curve.covered[i];
      ++counts[i];
    }
  }
  for (std::size_t i = 0; i < mean.covered.size(); ++i) {
    if (counts[i] != 0) {
      mean.covered[i] /= static_cast<double>(counts[i]);
    }
  }
  mean.final_covered = mean.covered.empty() ? 0.0 : mean.covered.back();
  return mean;
}

}  // namespace

void aggregate_experiment(ExperimentResult& result) {
  result.cells.clear();
  result.failed_trials = 0;
  // Cells in first-appearance order over the trials (matrix-expansion
  // order for Experiment::run(), submission order for the service).
  for (const TrialResult& lead : result.trials) {
    if (result.find_cell(lead.fuzzer, lead.variant) != nullptr) {
      continue;
    }
    CellStats cell;
    cell.fuzzer = lead.fuzzer;
    cell.variant = lead.variant;
    std::vector<const TrialResult*> ok_trials;
    std::vector<double> tests;
    std::vector<double> covered;
    std::vector<double> detection;
    for (const TrialResult& trial : result.trials) {
      if (trial.fuzzer != lead.fuzzer || trial.variant != lead.variant) {
        continue;
      }
      ++cell.trials;
      if (trial.failed) {
        ++cell.failed_trials;
        continue;
      }
      ok_trials.push_back(&trial);
      cell.detected_trials += trial.target_detected ? 1 : 0;
      tests.push_back(static_cast<double>(trial.tests_executed));
      covered.push_back(static_cast<double>(trial.covered));
      detection.push_back(static_cast<double>(trial.detection_tests));
    }
    cell.tests = common::summarize(tests);
    cell.covered = common::summarize(covered);
    cell.detection = common::summarize(detection);
    cell.mean_curve = average_curve(ok_trials);
    result.cells.push_back(std::move(cell));
  }
  for (const TrialResult& trial : result.trials) {
    result.failed_trials += trial.failed ? 1 : 0;
  }
}

ExperimentResult Experiment::run() const {
  ExperimentResult result;
  result.trials.resize(specs_.size());

  // Workers write disjoint slots; determinism needs no ordering here
  // because every aggregate below iterates in trial-index order.
  const PoolReport pool =
      run_indexed(specs_.size(), options_.workers, [&](std::uint64_t i) {
        result.trials[i] = run_trial(specs_[i]);
      });
  // run_trial captures campaign exceptions itself; anything the pool still
  // caught (e.g. allocation failure assembling the result) becomes a
  // failed trial rather than vanishing.
  for (const TaskFailure& failure : pool.failures) {
    TrialResult& trial = result.trials[failure.index];
    const TrialSpec& spec = specs_[failure.index];
    trial.index = spec.index;
    trial.fuzzer = spec.fuzzer;
    trial.variant = spec.variant;
    trial.run_index = spec.run_index;
    trial.failed = true;
    trial.error = failure.message;
  }

  merge_corpus_shards(result);
  // Every trial slot carries its spec's (fuzzer, variant) — including pool
  // failures, filled above — so first-appearance order over the trials is
  // exactly the fuzzer-major matrix order the cell schema documents.
  aggregate_experiment(result);
  return result;
}

void Experiment::merge_corpus_shards(const ExperimentResult& result) const {
  // Targets in first-appearance spec order; within a target the fold runs
  // in spec-index order. Both orders depend only on the matrix, never on
  // which worker finished first — and Corpus::merge is itself canonical —
  // so the merged file is byte-identical for any worker count.
  std::vector<std::string> targets;
  for (const TrialSpec& spec : specs_) {
    if (spec.corpus_merge_out.empty() ||
        std::find(targets.begin(), targets.end(), spec.corpus_merge_out) !=
            targets.end()) {
      continue;
    }
    targets.push_back(spec.corpus_merge_out);
  }
  for (const std::string& target : targets) {
    std::optional<fuzz::Corpus> merged;
    std::vector<std::string> shard_paths;
    for (const TrialSpec& spec : specs_) {
      if (spec.corpus_merge_out != target ||
          result.trials[spec.index].failed) {
        // A failed trial saved no shard (and a partially written one is
        // left on disk for the post-mortem, never folded in).
        continue;
      }
      fuzz::Corpus shard = fuzz::Corpus::load(spec.config.corpus_out);
      if (merged.has_value()) {
        merged->merge(shard);
      } else {
        merged.emplace(std::move(shard));
      }
      shard_paths.push_back(spec.config.corpus_out);
    }
    if (!merged.has_value()) {
      MABFUZZ_WARN() << "corpus merge target '" << target
                     << "': every contributing trial failed; nothing to write";
      continue;
    }
    merged->save(target);
    // Shards are scaffolding: only the merged store (+ manifest) is the
    // experiment's corpus artifact.
    for (const std::string& shard_path : shard_paths) {
      std::remove(shard_path.c_str());
      std::remove((shard_path + ".json").c_str());
    }
  }
}

std::uint64_t report_failures(std::ostream& os, const ExperimentResult& result) {
  for (const TrialResult& trial : result.trials) {
    if (trial.failed) {
      os << "trial " << trial.index << " (" << trial.fuzzer;
      if (!trial.variant.empty()) {
        os << "/" << trial.variant;
      }
      os << ", run " << trial.run_index << "): " << trial.error << "\n";
    }
  }
  return result.failed_trials;
}

// --- artifact emitters ----------------------------------------------------------

void write_trials_csv(std::ostream& os, const ExperimentResult& result,
                      const ArtifactOptions& options) {
  std::vector<std::string> header = {
      "trial",      "fuzzer",        "variant",         "run",
      "status",     "stop",          "tests",           "covered",
      "universe",   "mismatches",    "detected_bugs",   "target_detected",
      "detection_tests", "corpus_in", "corpus_entries", "corpus_out",
      "corpus_out_entries"};
  if (options.include_timing) {
    header.emplace_back("elapsed_seconds");
  }
  header.emplace_back("error");

  common::Table table(std::move(header));
  for (const TrialResult& trial : result.trials) {
    std::vector<std::string> row = {
        std::to_string(trial.index),
        trial.fuzzer,
        trial.variant,
        std::to_string(trial.run_index),
        trial.failed ? "failed" : "ok",
        trial.failed ? "" : std::string(stop_reason_name(trial.stop)),
        std::to_string(trial.tests_executed),
        std::to_string(trial.covered),
        std::to_string(trial.universe),
        std::to_string(trial.mismatches),
        std::to_string(trial.detected_bugs),
        trial.target_detected ? "1" : "0",
        std::to_string(trial.detection_tests),
        trial.corpus_in,
        std::to_string(trial.corpus_entries),
        trial.corpus_out,
        std::to_string(trial.corpus_out_entries)};
    if (options.include_timing) {
      row.push_back(common::format_double(trial.elapsed_seconds, 4));
    }
    row.push_back(trial.error);
    table.add_row(std::move(row));
  }
  table.render_csv(os);
}

namespace {

void write_summary(common::JsonWriter& json, const common::Summary& summary) {
  json.begin_object();
  json.key("count").value(static_cast<std::uint64_t>(summary.count));
  json.key("mean").value(summary.mean);
  json.key("median").value(summary.median);
  json.key("stddev").value(summary.stddev);
  json.key("min").value(summary.min);
  json.key("max").value(summary.max);
  json.key("p25").value(summary.p25);
  json.key("p75").value(summary.p75);
  json.end_object();
}

void write_curve(common::JsonWriter& json, const CoverageCurve& curve) {
  json.begin_object();
  json.key("universe").value(static_cast<std::uint64_t>(curve.universe));
  json.key("grid").begin_array();
  for (const std::uint64_t g : curve.grid) {
    json.value(g);
  }
  json.end_array();
  json.key("covered").begin_array();
  for (const double c : curve.covered) {
    json.value(c);
  }
  json.end_array();
  json.end_object();
}

}  // namespace

void write_experiment_json(std::ostream& os, const ExperimentResult& result,
                           const ArtifactOptions& options) {
  common::JsonWriter json(os, options.pretty_json);
  json.begin_object();
  json.key("schema").value("mabfuzz-experiment-v2");
  json.key("trial_count").value(static_cast<std::uint64_t>(result.trials.size()));
  json.key("failed_trials").value(result.failed_trials);

  json.key("trials").begin_array();
  for (const TrialResult& trial : result.trials) {
    json.begin_object();
    json.key("trial").value(static_cast<std::uint64_t>(trial.index));
    json.key("fuzzer").value(trial.fuzzer);
    json.key("variant").value(trial.variant);
    json.key("run").value(trial.run_index);
    json.key("failed").value(trial.failed);
    // Provenance is config, so it is reported for failed trials too.
    if (!trial.corpus_in.empty()) {
      json.key("corpus_in").value(trial.corpus_in);
      json.key("corpus_entries").value(trial.corpus_entries);
    }
    if (!trial.corpus_out.empty()) {
      json.key("corpus_out").value(trial.corpus_out);
      json.key("corpus_out_entries").value(trial.corpus_out_entries);
    }
    if (trial.failed) {
      json.key("error").value(trial.error);
    } else {
      json.key("stop").value(stop_reason_name(trial.stop));
      json.key("tests").value(trial.tests_executed);
      json.key("covered").value(static_cast<std::uint64_t>(trial.covered));
      json.key("universe").value(static_cast<std::uint64_t>(trial.universe));
      json.key("mismatches").value(trial.mismatches);
      json.key("detected_bugs")
          .value(static_cast<std::uint64_t>(trial.detected_bugs));
      json.key("target_detected").value(trial.target_detected);
      json.key("detection_tests").value(trial.detection_tests);
      if (options.include_timing) {
        json.key("elapsed_seconds").value(trial.elapsed_seconds);
      }
      json.key("curve");
      write_curve(json, trial.curve);
    }
    json.end_object();
  }
  json.end_array();

  json.key("cells").begin_array();
  for (const CellStats& cell : result.cells) {
    json.begin_object();
    json.key("fuzzer").value(cell.fuzzer);
    json.key("variant").value(cell.variant);
    json.key("trials").value(cell.trials);
    json.key("failed_trials").value(cell.failed_trials);
    json.key("detected_trials").value(cell.detected_trials);
    json.key("tests");
    write_summary(json, cell.tests);
    json.key("covered");
    write_summary(json, cell.covered);
    json.key("detection");
    write_summary(json, cell.detection);
    json.key("mean_curve");
    write_curve(json, cell.mean_curve);
    json.end_object();
  }
  json.end_array();

  json.end_object();
  os << '\n';
}

}  // namespace mabfuzz::harness
