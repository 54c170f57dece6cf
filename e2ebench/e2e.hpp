#pragma once
// Shared pieces of the end-to-end campaign benchmark: options, the span
// recorder of the traced mode, the correctness ledger, the campaign-side
// work counters and the layer replay. Everything here drives the mabfuzz
// library through its public headers only.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/campaign.hpp"

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string workdir;    // scratch files of this invocation
  std::string trace_out;  // span dump of the traced run
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Derives the seed of one cell / trial / job from the workload seed.
[[nodiscard]] std::uint64_t cell_seed(std::uint64_t workload_seed,
                                      std::uint64_t index);

// ---------------------------------------------------------------- tracing

/// Every span name the traced run records. A span is one timed call into
/// a layer's public function, made from the benchmark's own code.
enum class SpanName : std::uint8_t {
  kSetup,           // harness: Campaign constructor
  kStep,            // harness: Campaign::step
  kReplayTest,      // replay: one test through every layer (parent span)
  kMakeSeed,        // fuzz: Backend::make_seed
  kMakeMutant,      // mutation: Backend::make_mutant
  kDecodeBuild,     // isa: DecodedProgram::build
  kPipeline,        // soc: Pipeline::run
  kIss,             // golden: Iss::run
  kCompare,         // fuzz: compare
  kReward,          // core: compute_reward
  kAbsorb,          // coverage: Accumulator::absorb
  kSelect,          // mab: Bandit::select
  kUpdate,          // mab: Bandit::update
  kCorpusOffer,     // fuzz: Corpus::offer
  kCheckpointSave,  // harness: Checkpoint::capture + save
  kCheckpointLoad,  // harness: Checkpoint::load
  kResume,          // harness: resume_campaign
  kCount,
};

[[nodiscard]] std::string_view span_name(SpanName name) noexcept;

/// In-memory span store: name, start, end and parent of each timed call.
/// Written out once, at the end of the traced run.
class Tracer {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    SpanName name = SpanName::kCount;
  };

  /// Opens a span and returns its id; close it with end().
  std::int32_t begin(SpanName name, std::int32_t parent = -1) {
    spans_.push_back(Span{now_ns(), 0, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  struct Totals {
    std::uint64_t calls = 0;
    double total_ns = 0;  // span time
    double self_ns = 0;   // span time minus the time of its child spans
  };
  /// Per-name call counts, total and self time over spans [from, to).
  [[nodiscard]] std::map<SpanName, Totals> totals(std::size_t from,
                                                  std::size_t to) const;

  /// Writes "id,parent,name,start_ns,end_ns" rows.
  void write_csv(const std::string& path) const;

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ correctness

/// Counts attempted operations (cells, trials, jobs, resumes) and the ones
/// that failed. error_rate = failed / attempted.
class Ledger {
 public:
  /// Records one operation; `failure` empty means it succeeded.
  void record(const std::string& failure);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // the first few, for the report
};

// ----------------------------------------------------------- the counters

/// Exact per-test work counters read from a running campaign: the observer
/// reads campaign.backend().execution_context() after every step, the
/// step result, and the decode cache's lifetime counters.
struct WorkCounters {
  std::uint64_t tests = 0;
  std::uint64_t dut_cycles = 0;
  std::uint64_t commits = 0;
  std::uint64_t traps = 0;
  std::uint64_t golden_instret = 0;
  std::uint64_t firings = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t new_points = 0;
  std::uint64_t decode_lookups = 0;
  std::uint64_t decode_misses = 0;
  std::uint64_t arm_resets = 0;
  std::uint64_t coverage_hits = 0;  // replay only: per-test map popcount
  std::uint64_t corpus_entries = 0;

  void add(const WorkCounters& other);
};

class CounterObserver final : public mabfuzz::harness::CampaignObserver {
 public:
  /// Subscribes to `campaign`, which must outlive the observer.
  explicit CounterObserver(mabfuzz::harness::Campaign& campaign);

  void on_step(const mabfuzz::harness::Campaign& campaign,
               const mabfuzz::fuzz::StepResult& step) override;
  /// Folds the campaign's lifetime totals (decode cache, arm resets,
  /// corpus size) in; call once after the campaign's last step.
  void finish();
  [[nodiscard]] const WorkCounters& counters() const noexcept { return c_; }

 private:
  mabfuzz::harness::Campaign& campaign_;
  WorkCounters c_;
};

// ------------------------------------------------------------ the replay

/// Drives `tests` tests of a make_seed / make_mutant lineage, built by a
/// fresh Backend with `config`'s backend settings, through each layer's
/// public call, recording one child span per call under a kReplayTest
/// parent. Bandit select/update run when the campaign's policy has a
/// bandit; Corpus::offer runs for every test. Returns the replay's work
/// counters.
[[nodiscard]] WorkCounters replay_layers(const mabfuzz::harness::CampaignConfig& config,
                                         std::uint64_t tests, Tracer& tracer);

/// Checkpoint layer replay: runs a campaign of `config` for `steps` steps,
/// then times capture + save, load and resume_campaign as spans. Returns
/// the checkpoint's size in bytes; throws when the resume diverges.
std::uint64_t replay_checkpoint(const mabfuzz::harness::CampaignConfig& config,
                                std::uint64_t steps, const std::string& path,
                                Tracer& tracer);

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One workload run's output: human-readable lines, then either the
/// traced run's per-layer metrics or the untraced run's raw samples (one
/// JSON object, merged across processes by run.py).
struct Report {
  std::vector<std::string> lines;
  std::vector<Metric> metrics;
  std::string sample_json;
  Ledger ledger;
};

[[nodiscard]] Report run_workload(const Options& options);

}  // namespace e2ebench
