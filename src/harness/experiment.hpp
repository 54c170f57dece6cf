#pragma once
// The trial-matrix experiment engine: the one path every repeated-trial
// result in this repo (paper Table I, Fig. 3, Fig. 4, the ablations, the
// CLI's --trials/--matrix mode) is produced through.
//
//  - TrialMatrix: a declarative (fuzzer × config-overrides × seed-range)
//    matrix expanded into independent TrialSpecs. Each spec is a fully
//    resolved CampaignConfig whose RNG streams derive from
//    (rng_seed, run_index), so a trial's result depends only on its spec —
//    never on scheduling.
//  - Experiment: executes every trial across the shared chunked worker
//    pool (harness/worker_pool.hpp). Results land in matrix-expansion
//    order and aggregation runs after the pool drains, so aggregate
//    statistics are bit-identical regardless of the worker count. Each
//    trial's Campaign owns one Backend whose ExecutionContext (decode
//    cache, DUT/ISS run buffers, dirty-region DRAM) is recycled across
//    every test of the trial — the per-worker hot path allocates nothing
//    per executed test. A cell with corpus_out makes each trial write a
//    private `<path>.shard-<index>` store; after the pool drains the
//    engine folds the shards (Corpus::merge, spec-index order) into the
//    one requested store + manifest and deletes the shards.
//  - ExperimentResult: per-trial results (failures included — a throwing
//    trial is counted and surfaced, not dropped), per-cell aggregate
//    statistics (mean/median/stddev/percentiles via common/stats), and
//    pairwise speedup reports against a baseline fuzzer (paper Table I /
//    Fig. 4 accounting).
//  - write_trials_csv / write_experiment_json: machine-readable artifact
//    emitters ("mabfuzz-experiment-v2"; schema in docs/ARTIFACTS.md).

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "harness/campaign.hpp"
#include "harness/curves.hpp"
#include "soc/bugs.hpp"

namespace mabfuzz::harness {

/// One named matrix column: "key=value" overrides applied onto the base
/// config (same vocabulary as CampaignConfig::set). The label keys the
/// resulting cells; empty overrides make a pass-through variant.
struct TrialVariant {
  std::string label;
  std::vector<std::string> overrides;
};

/// One fully expanded trial: (fuzzer, variant, run_index) plus the
/// resolved config it executes.
struct TrialSpec {
  std::size_t index = 0;  // position in the matrix expansion
  std::string fuzzer;
  std::string variant;  // TrialVariant label; "" for the default variant
  std::uint64_t run_index = 0;
  CampaignConfig config;
  /// When the cell requested corpus_out, the merge target the engine folds
  /// this trial's shard into post-barrier; config.corpus_out then holds
  /// the private shard path (`<target>.shard-<index>`). Empty otherwise.
  std::string corpus_merge_out;
};

/// Declarative experiment matrix. Expansion order is fuzzer-major, then
/// variant, then run index — the stable trial numbering every report and
/// artifact uses.
struct TrialMatrix {
  CampaignConfig base;
  /// Fuzzer axis; empty runs just base.fuzzer.
  std::vector<std::string> fuzzers;
  /// Config-override axis; empty runs one unmodified variant.
  std::vector<TrialVariant> variants;
  /// Seed range: run_index in [first_run, first_run + trials).
  std::uint64_t trials = 1;
  std::uint64_t first_run = 0;

  /// Expands to the full trial list. Throws std::invalid_argument on a
  /// malformed variant override (unknown key / unparsable value).
  [[nodiscard]] std::vector<TrialSpec> expand() const;
};

/// What one trial produced. `failed` trials carry the exception text in
/// `error` and zeroed metrics; they are excluded from cell statistics but
/// counted and listed in the aggregate report.
struct TrialResult {
  std::size_t index = 0;
  std::string fuzzer;
  std::string variant;
  std::uint64_t run_index = 0;

  bool failed = false;
  std::string error;

  StopReason stop = StopReason::kMaxTests;
  std::uint64_t tests_executed = 0;
  std::size_t covered = 0;
  std::size_t universe = 0;
  std::uint64_t mismatches = 0;
  std::size_t detected_bugs = 0;
  /// Target-bug accounting (ExperimentOptions::target_bug): detected flag
  /// and tests-to-detection, right-censored at the test cap like the
  /// paper's Table I columns.
  bool target_detected = false;
  std::uint64_t detection_tests = 0;
  /// Wall-clock seconds; inherently non-deterministic, excluded from
  /// artifacts when ArtifactOptions::include_timing is false.
  double elapsed_seconds = 0.0;

  /// Corpus provenance: the mabfuzz-corpus-v2 store this trial warmed up
  /// from (empty = cold start) and how many entries it held at load.
  std::string corpus_in;
  std::uint64_t corpus_entries = 0;
  /// Shard provenance: the store this trial wrote (the per-trial shard
  /// path in a matrix with corpus_out; empty = no corpus written) and how
  /// many entries it held at save.
  std::string corpus_out;
  std::uint64_t corpus_out_entries = 0;

  CoverageCurve curve;  // per-batch coverage samples
};

/// The outcome of one finished campaign as a TrialResult: fuzzer, run
/// index, corpus provenance, stop reason, totals, detections and the
/// coverage curve. With `target_bug`, also the target-bug accounting
/// (tests-to-detection right-censored at the config's test cap). The
/// matrix-position fields (index, variant) are left for the caller.
/// Experiment::run_trial and the campaign service both build their
/// trials through this.
[[nodiscard]] TrialResult trial_result(
    const Campaign& campaign, const RunResult& run,
    std::optional<soc::BugId> target_bug = std::nullopt);

/// Aggregate statistics over one (fuzzer, variant) cell's trials.
struct CellStats {
  std::string fuzzer;
  std::string variant;
  std::uint64_t trials = 0;
  std::uint64_t failed_trials = 0;
  std::uint64_t detected_trials = 0;  // target-bug detections

  common::Summary tests;       // tests executed per successful trial
  common::Summary covered;     // final covered points
  common::Summary detection;   // tests-to-detection (censored at the cap)
  CoverageCurve mean_curve;    // run-averaged coverage curve
};

/// How the engine executes a matrix.
struct ExperimentOptions {
  /// Worker threads; 0 = hardware concurrency. Never affects results.
  unsigned workers = 0;
  /// Detection experiment: each trial stops at the bug's first detection
  /// (or the config's test cap), the paper's Table I protocol.
  std::optional<soc::BugId> target_bug;
  /// Stop each trial once every enabled bug is detected (or the cap).
  bool stop_on_all_bugs = false;
};

/// Everything an Experiment::run() produced.
struct ExperimentResult {
  std::vector<TrialResult> trials;  // matrix-expansion order
  std::vector<CellStats> cells;     // fuzzer-major cell order
  std::uint64_t failed_trials = 0;

  /// The cell for (fuzzer, variant); nullptr when absent.
  [[nodiscard]] const CellStats* find_cell(
      std::string_view fuzzer, std::string_view variant = {}) const noexcept;
};

/// Recomputes `result.cells` (first-appearance (fuzzer, variant) order
/// over `result.trials`, which for Experiment::run() equals fuzzer-major
/// matrix order) and `result.failed_trials`. Experiment::run() calls this
/// after the pool drains; the campaign service reuses it to wrap a single
/// finished campaign in the same experiment-v2 artifact schema.
void aggregate_experiment(ExperimentResult& result);

/// Table I / Fig. 4-style pairwise comparison of every non-baseline cell
/// against the baseline fuzzer's cell of the same variant.
struct SpeedupReport {
  struct Row {
    std::string fuzzer;
    std::string variant;
    /// baseline tests-to-stop over candidate tests-to-stop (division
    /// guarded by common::speedup_ratio; 0 when a side is empty).
    double mean_speedup = 0.0;
    double median_speedup = 0.0;
    /// Fig. 4 coverage metrics from the run-averaged curves.
    double coverage_speedup = 0.0;
    double increment_percent = 0.0;
  };
  std::string baseline;
  std::vector<Row> rows;
};

/// Builds the pairwise report. Throws std::invalid_argument when the
/// baseline fuzzer has no cells in `result`.
[[nodiscard]] SpeedupReport speedup_report(const ExperimentResult& result,
                                           std::string_view baseline_fuzzer);

/// One constructed experiment: the matrix expanded and validated, ready to
/// run (possibly repeatedly — runs are independent).
class Experiment {
 public:
  explicit Experiment(TrialMatrix matrix, ExperimentOptions options = {});

  [[nodiscard]] const std::vector<TrialSpec>& specs() const noexcept {
    return specs_;
  }
  [[nodiscard]] const ExperimentOptions& options() const noexcept {
    return options_;
  }

  /// Executes every trial on the worker pool and aggregates. Results are
  /// bit-identical for any worker count.
  [[nodiscard]] ExperimentResult run() const;

 private:
  [[nodiscard]] TrialResult run_trial(const TrialSpec& spec) const;
  [[nodiscard]] StopCondition stop_condition(const TrialSpec& spec) const;
  /// Post-barrier federation: folds every successful trial's corpus shard
  /// into its merge target (spec-index order, so the result is independent
  /// of worker count and completion order), writes the merged store +
  /// manifest, and removes the shard files.
  void merge_corpus_shards(const ExperimentResult& result) const;

  ExperimentOptions options_;
  std::vector<TrialSpec> specs_;  // the expanded matrix (all it needs kept)
};

/// Artifact emission knobs shared by the CSV and JSON writers.
struct ArtifactOptions {
  /// Include wall-clock fields. Disable for byte-identical artifacts
  /// (the determinism tests and any content-addressed result store).
  bool include_timing = true;
  bool pretty_json = true;
};

/// Prints one line per failed trial ("trial 3 (ucb/g5, run 1): what()")
/// and returns the failure count — the one-liner every bench gates its
/// exit status on, so partial data never masquerades as a clean result.
std::uint64_t report_failures(std::ostream& os, const ExperimentResult& result);

/// One CSV row per trial (header first), matrix-expansion order.
void write_trials_csv(std::ostream& os, const ExperimentResult& result,
                      const ArtifactOptions& options = {});

/// The "mabfuzz-experiment-v2" JSON artifact: trial rows plus per-cell
/// aggregates and coverage curves.
void write_experiment_json(std::ostream& os, const ExperimentResult& result,
                           const ArtifactOptions& options = {});

}  // namespace mabfuzz::harness
