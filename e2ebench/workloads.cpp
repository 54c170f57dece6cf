// The three workloads of the end-to-end benchmark and the measurement loop
// they share. Each workload is a closed loop on one process: a round
// constructs its campaigns (the timed set-up), runs them to their fixed
// budgets or stop conditions (the timed run), and is repeated, identical,
// until the time budget is spent. Exact outcomes come from the first round
// and every later round must reproduce them. See NOTES.md for why each
// workload exists.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "e2e.hpp"
#include "fuzz/corpus.hpp"
#include "harness/service.hpp"
#include "soc/bugs.hpp"
#include "soc/cores.hpp"

namespace e2ebench {

using namespace mabfuzz;
namespace fs = std::filesystem;

namespace {

constexpr int kSetupOnlySamples = 5;  // set-ups timed besides the round's own
constexpr std::uint64_t kReplayTestsPerCell = 1500;
constexpr double kInf = std::numeric_limits<double>::infinity();

[[nodiscard]] std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

[[nodiscard]] double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

[[nodiscard]] std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("cannot read '" + path + "'");
  }
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

[[nodiscard]] harness::CampaignConfig config_of(std::vector<std::string> pairs) {
  return harness::CampaignConfig::from_pairs(pairs);
}

/// Runs `body`; returns what it threw as a failure, empty if nothing.
template <class Body>
[[nodiscard]] std::string guarded(Body&& body) {
  try {
    body();
    return {};
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

/// The checks every campaign of the benchmark must pass, in the untraced
/// and the traced run: no mismatch or detection on a bugs=none core, and
/// every detection names an enabled bug and lies within the tests run.
/// Returns the failure, empty when the campaign passed.
[[nodiscard]] std::string check_campaign(const std::string& label,
                                         const harness::Campaign& c) {
  const soc::BugSet& bugs = c.config().bugs;
  if (bugs.empty() && (c.mismatches() != 0 || c.detected_bug_count() != 0)) {
    return format("%s: %llu mismatches on a bugs=none core", label.c_str(),
                  static_cast<unsigned long long>(c.mismatches()));
  }
  for (const soc::BugInfo& info : soc::all_bugs()) {
    const std::uint64_t first = c.first_detection_test(info.id);
    if (first == 0) {
      continue;
    }
    if (!bugs.enabled(info.id)) {
      return label + ": detected " + std::string(info.name) + ", which is not enabled";
    }
    if (first > c.tests_executed()) {
      return label + ": " + std::string(info.name) + " detected after the last test";
    }
  }
  return {};
}

/// One campaign of a workload with the stop condition it runs to.
struct Cell {
  std::string label;
  harness::CampaignConfig config;
  harness::StopCondition stop;
};

/// Splits a round's timed run into segments of about kSegmentTests tests.
/// A segment covers the same work in every round of one seed, so run.py
/// can take each segment's fastest time over all rounds of a run (NOTES.md,
/// "Host noise").
constexpr std::uint64_t kSegmentTests = 500;

class SegmentClock {
 public:
  void start() {
    last_ns_ = now_ns();
    next_ = kSegmentTests;
    seconds_.clear();
  }
  /// Closes a segment when the round's test count reaches the next multiple
  /// of kSegmentTests; returns whether it did.
  bool progress(std::uint64_t tests) {
    if (tests < next_) {
      return false;
    }
    mark();
    next_ = (tests / kSegmentTests + 1) * kSegmentTests;
    return true;
  }
  /// Closes the last segment at the end of the run.
  void mark() {
    const std::int64_t now = now_ns();
    seconds_.push_back(static_cast<double>(now - last_ns_) * 1e-9);
    last_ns_ = now;
  }
  [[nodiscard]] const std::vector<double>& seconds() const noexcept { return seconds_; }

 private:
  std::int64_t last_ns_ = 0;
  std::uint64_t next_ = kSegmentTests;
  std::vector<double> seconds_;
};

/// Feeds every step of the campaigns it observes, one after another, to a
/// SegmentClock.
class SegmentObserver final : public harness::CampaignObserver {
 public:
  explicit SegmentObserver(SegmentClock& clock) : clock_(clock) {}
  void on_step(const harness::Campaign&, const fuzz::StepResult&) override {
    clock_.progress(++tests_);
  }

 private:
  SegmentClock& clock_;
  std::uint64_t tests_ = 0;
};

/// What one round produced.
struct Round {
  double run_s = 0;          // the timed run interval
  std::vector<double> segment_s;  // the timed tests, split into segments
  std::uint64_t timed_tests = 0;  // tests in segment_s
  std::uint64_t tests = 0;   // tests executed in it
  std::uint64_t covered = 0; // exact
  std::string fingerprint;   // every exact outcome; equal in every process
  // bug-hunt: per-trial detection, in trial order
  std::vector<double> detect_s;        // kInf when censored
  std::vector<std::uint64_t> detect_tests;  // 0 when censored
  // service-resume
  double resume_s = 0;
  std::uint64_t resume_steps = 0;
};

class Workload {
 public:
  explicit Workload(const Options& options) : o_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// The benchmark's own preparation (not part of set-up).
  virtual void prepare() {}
  /// Constructs the round's campaigns and service: the timed set-up.
  virtual void build() = 0;
  /// Runs the built round, recording each operation in `ledger`.
  virtual Round run(Ledger& ledger) = 0;
  virtual void teardown() = 0;

  /// The campaigns the traced run steps, replays and checkpoints.
  [[nodiscard]] virtual std::vector<Cell> cells() const = 0;
  /// Which cell the checkpoint replay uses, and at which step.
  [[nodiscard]] virtual std::pair<std::size_t, std::uint64_t> checkpoint_cell() const = 0;

  /// Workload-specific summary lines for the untraced report.
  virtual void describe(const Round& round, Report& report) const = 0;

 protected:
  [[nodiscard]] std::string path(const std::string& name) const {
    return o_.workdir + "/" + name;
  }
  const Options& o_;
};

// ------------------------------------------------------------ clean-sweep

// bugs=none, {thehuzz, ucb, exp3, reuse} x {cva6, rocket, boom} in
// kSweepGroups seed groups, each cell at a fixed test budget. The reuse
// cells load a corpus prepared per core (corpus-in, part of set-up) and
// save theirs (corpus-out, part of the run). A cell's cost per test depends
// on its seed's lineage, so several short cells per pair keep the round's
// work from moving with the workload seed.
constexpr std::uint64_t kSweepGroups = 3;
constexpr std::uint64_t kSweepTests = 2000;
constexpr std::uint64_t kPrepCorpusTests = 1500;

class CleanSweep final : public Workload {
 public:
  explicit CleanSweep(const Options& options) : Workload(options) {
    std::uint64_t index = 0;
    for (std::uint64_t group = 0; group < kSweepGroups; ++group) {
      for (const char* fuzzer : {"thehuzz", "ucb", "exp3", "reuse"}) {
        for (const soc::CoreKind core : soc::kAllCores) {
          const std::string core_name(soc::core_name(core));
          const std::string suffix = format("g%llu", static_cast<unsigned long long>(group));
          std::vector<std::string> pairs = {
              std::string("fuzzer=") + fuzzer, "core=" + core_name, "bugs=none",
              "tests=" + std::to_string(kSweepTests),
              "seed=" + std::to_string(cell_seed(o_.seed, index++))};
          if (std::string_view(fuzzer) == "reuse") {
            pairs.push_back("corpus-in=" + path("prep-" + core_name + ".corpus"));
            pairs.push_back("corpus-out=" +
                            path("sweep-" + core_name + "-" + suffix + ".corpus"));
          }
          cells_.push_back(Cell{std::string(fuzzer) + "/" + core_name + "/" + suffix,
                                config_of(pairs),
                                harness::StopCondition::max_tests(kSweepTests)});
        }
      }
    }
  }

  void prepare() override {
    std::uint64_t index = 100;
    for (const soc::CoreKind core : soc::kAllCores) {
      const std::string core_name(soc::core_name(core));
      harness::Campaign campaign(config_of(
          {"fuzzer=reuse", "core=" + core_name, "bugs=none",
           "tests=" + std::to_string(kPrepCorpusTests),
           "seed=" + std::to_string(cell_seed(o_.seed, index++)),
           "corpus-out=" + path("prep-" + core_name + ".corpus")}));
      campaign.run();
      campaign.save_corpus();
    }
  }

  void build() override {
    segments_ = std::make_unique<SegmentObserver>(clock_);
    for (const Cell& cell : cells_) {
      campaigns_.push_back(std::make_unique<harness::Campaign>(cell.config));
      campaigns_.back()->add_observer(*segments_);
    }
  }

  Round run(Ledger& ledger) override {
    Round round;
    std::vector<std::string> threw(campaigns_.size());
    const std::int64_t start = now_ns();
    clock_.start();
    for (std::size_t i = 0; i < campaigns_.size(); ++i) {
      threw[i] = guarded([&campaign = *campaigns_[i]] {
        campaign.run();
        if (campaign.corpus() != nullptr) {
          campaign.save_corpus();
        }
      });
    }
    clock_.mark();
    round.run_s = seconds_since(start);
    round.segment_s = clock_.seconds();
    for (std::size_t i = 0; i < campaigns_.size(); ++i) {
      const harness::Campaign& c = *campaigns_[i];
      round.tests += c.tests_executed();
      round.timed_tests += c.tests_executed();
      round.covered += c.covered();
      round.fingerprint += format("%s:%llu:%zu:%llu:%zu;", cells_[i].label.c_str(),
                                  static_cast<unsigned long long>(c.tests_executed()),
                                  c.covered(), static_cast<unsigned long long>(c.mismatches()),
                                  c.corpus() ? c.corpus()->size() : std::size_t{0});
      const std::string label = "clean-sweep " + cells_[i].label;
      std::string failure =
          threw[i].empty() ? check_campaign(label, c) : label + ": " + threw[i];
      if (failure.empty() && c.tests_executed() != kSweepTests) {
        failure = label + ": budget not executed";
      }
      ledger.record(failure);
    }
    return round;
  }

  void teardown() override {
    campaigns_.clear();
    segments_.reset();
  }

  std::vector<Cell> cells() const override { return cells_; }
  std::pair<std::size_t, std::uint64_t> checkpoint_cell() const override {
    return {cells_.size() - 1, kSweepTests / 2};  // the reuse/boom cell
  }

  void describe(const Round&, Report& report) const override {
    report.lines.push_back(format("  cells: %zu x %llu tests, bugs=none", cells_.size(),
                                  static_cast<unsigned long long>(kSweepTests)));
  }

 private:
  std::vector<Cell> cells_;
  SegmentClock clock_;
  std::unique_ptr<SegmentObserver> segments_;
  std::vector<std::unique_ptr<harness::Campaign>> campaigns_;
};

// --------------------------------------------------------------- bug-hunt

// The paper's Table I setting. cva6 with bugs=default (V1-V6) under
// {thehuzz, ucb, exp3}, rocket with bugs=default (V7) under {ucb, exp3},
// kHuntGroups seeds each. A trial ends once every timed bug is detected
// and at least kHuntFloor tests ran, or at the kHuntCap censoring cap.
// V5 is enabled but not timed: it falls in about one test, so it would
// tell no fuzzers apart (NOTES.md).
constexpr std::uint64_t kHuntGroups = 8;
constexpr std::uint64_t kHuntFloor = 2000;
static_assert(kHuntFloor % kSegmentTests == 0, "the floor splits into whole segments");
constexpr std::uint64_t kHuntCap = 100000;

[[nodiscard]] bool all_detected(const harness::Campaign& c,
                                const std::vector<soc::BugId>& bugs) {
  return std::all_of(bugs.begin(), bugs.end(),
                     [&](soc::BugId bug) { return c.bug_detected(bug); });
}

/// Records when a trial's timed bugs were all detected, its coverage at
/// the floor, and the clock at every kSegmentTests tests up to the floor.
class DetectObserver final : public harness::CampaignObserver {
 public:
  explicit DetectObserver(std::vector<soc::BugId> timed) : timed_(std::move(timed)) {}

  void on_step(const harness::Campaign& c, const fuzz::StepResult& step) override {
    if (step.test_index <= kHuntFloor && step.test_index % kSegmentTests == 0) {
      segment_ends_ns.push_back(now_ns());
    }
    if (step.test_index == kHuntFloor) {
      covered_at_floor = c.covered();
    }
    if (detect_tests == 0 && all_detected(c, timed_)) {
      detect_tests = step.test_index;
      detect_s = c.elapsed_seconds();
    }
  }

  std::uint64_t detect_tests = 0;  // 0 until detected
  double detect_s = 0;
  std::size_t covered_at_floor = 0;
  std::vector<std::int64_t> segment_ends_ns;

 private:
  std::vector<soc::BugId> timed_;
};

[[nodiscard]] std::vector<soc::BugId> timed_bugs(soc::CoreKind core) {
  std::vector<soc::BugId> out;
  const soc::BugSet enabled = soc::default_bugs(core);
  for (const soc::BugInfo& info : soc::all_bugs()) {
    if (enabled.enabled(info.id) && info.id != soc::BugId::kV5SilentLoadFault) {
      out.push_back(info.id);
    }
  }
  return out;
}

class BugHunt final : public Workload {
 public:
  explicit BugHunt(const Options& options) : Workload(options) {
    const std::pair<soc::CoreKind, const char*> plan[] = {
        {soc::CoreKind::kCva6, "thehuzz"}, {soc::CoreKind::kCva6, "ucb"},
        {soc::CoreKind::kCva6, "exp3"},    {soc::CoreKind::kRocket, "ucb"},
        {soc::CoreKind::kRocket, "exp3"}};
    std::uint64_t index = 0;
    for (std::uint64_t group = 0; group < kHuntGroups; ++group) {
      for (const auto& [core, fuzzer] : plan) {
        const std::string core_name(soc::core_name(core));
        const std::uint64_t seed = cell_seed(o_.seed, 1000 + index++);
        harness::CampaignConfig config = config_of(
            {std::string("fuzzer=") + fuzzer, "core=" + core_name, "bugs=default",
             "tests=" + std::to_string(kHuntCap), "seed=" + std::to_string(seed)});
        const std::vector<soc::BugId> timed = timed_bugs(core);
        harness::StopCondition stop =
            harness::StopCondition::custom(
                "timed bugs detected",
                [timed](const harness::Campaign& c) {
                  return c.tests_executed() >= kHuntFloor && all_detected(c, timed);
                }) ||
            harness::StopCondition::max_tests(kHuntCap);
        cells_.push_back(Cell{format("%s/%s/g%llu", fuzzer, core_name.c_str(),
                                     static_cast<unsigned long long>(group)),
                              config, stop});
        timed_.push_back(timed);
      }
    }
  }

  void build() override {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      campaigns_.push_back(std::make_unique<harness::Campaign>(cells_[i].config));
      observers_.push_back(std::make_unique<DetectObserver>(timed_[i]));
      campaigns_.back()->add_observer(*observers_.back());
    }
  }

  Round run(Ledger& ledger) override {
    Round round;
    std::vector<std::string> threw(campaigns_.size());
    std::vector<std::int64_t> began(campaigns_.size());
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < campaigns_.size(); ++i) {
      began[i] = now_ns();
      threw[i] = guarded([&] { campaigns_[i]->run_until(cells_[i].stop); });
    }
    round.run_s = seconds_since(start);
    // The rate counts each trial's first kHuntFloor tests, which every
    // trial runs: how far past the floor a trial goes depends on the seed,
    // and the cores and fuzzers differ in cost per test. A trial that threw
    // before the floor has fewer segments, which fails the repeat check.
    for (std::size_t i = 0; i < campaigns_.size(); ++i) {
      std::int64_t last = began[i];
      for (const std::int64_t end : observers_[i]->segment_ends_ns) {
        round.segment_s.push_back(static_cast<double>(end - last) * 1e-9);
        last = end;
      }
      round.timed_tests += kHuntFloor;
    }
    for (std::size_t i = 0; i < campaigns_.size(); ++i) {
      const harness::Campaign& c = *campaigns_[i];
      const DetectObserver& d = *observers_[i];
      round.tests += c.tests_executed();
      round.covered += d.covered_at_floor;
      const bool detected = d.detect_tests != 0;
      round.detect_tests.push_back(d.detect_tests);
      round.detect_s.push_back(detected ? d.detect_s : kInf);
      round.fingerprint += format("%s:%llu:%llu:%zu:", cells_[i].label.c_str(),
                                  static_cast<unsigned long long>(c.tests_executed()),
                                  static_cast<unsigned long long>(d.detect_tests),
                                  d.covered_at_floor);
      for (const soc::BugInfo& info : soc::all_bugs()) {
        round.fingerprint += std::to_string(c.first_detection_test(info.id)) + ",";
      }
      round.fingerprint += ";";
      const std::string label = "bug-hunt " + cells_[i].label;
      ledger.record(threw[i].empty() ? check_campaign(label, c) : label + ": " + threw[i]);
    }
    return round;
  }

  void teardown() override {
    campaigns_.clear();
    observers_.clear();
  }

  std::vector<Cell> cells() const override { return cells_; }
  std::pair<std::size_t, std::uint64_t> checkpoint_cell() const override {
    return {1, kHuntFloor};  // ucb/cva6, group 0
  }

  void describe(const Round& round, Report& report) const override {
    report.lines.push_back(format(
        "  trials: %zu (cva6 bugs=default under thehuzz/ucb/exp3, rocket bugs=default "
        "under ucb/exp3); floor %llu tests, cap %llu tests; V5 enabled, not timed",
        cells_.size(), static_cast<unsigned long long>(kHuntFloor),
        static_cast<unsigned long long>(kHuntCap)));
    std::string censored;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (round.detect_tests[i] == 0) {
        censored += " " + cells_[i].label;
        report.lines.push_back(format("  trial %-20s censored at %llu tests",
                                      cells_[i].label.c_str(),
                                      static_cast<unsigned long long>(kHuntCap)));
      } else {
        report.lines.push_back(format("  trial %-20s detect_tests %6llu  detect_s %.4f",
                                      cells_[i].label.c_str(),
                                      static_cast<unsigned long long>(round.detect_tests[i]),
                                      round.detect_s[i]));
      }
    }
    report.lines.push_back("  censored trials:" + (censored.empty() ? std::string(" none") : censored));
  }

 private:
  std::vector<Cell> cells_;
  std::vector<std::vector<soc::BugId>> timed_;
  std::vector<std::unique_ptr<harness::Campaign>> campaigns_;
  std::vector<std::unique_ptr<DetectObserver>> observers_;
};

// --------------------------------------------------------- service-resume

// A CampaignService with one lane runs thirteen bugs=none jobs in
// round-robin slices with periodic checkpoints: a short job for each of
// {thehuzz, ucb, exp3, reuse} x {cva6, rocket, boom}, and a long reuse/boom
// victim that also loads and saves a corpus. After the drain, a fresh
// service resumes the victim from its last periodic checkpoint, and its
// artifacts must equal the bytes the uninterrupted run wrote.
//
// A job's cost per test depends on its seed's lineage and does not settle
// with length (thehuzz/boom ranges over 2x between seeds), so many short
// jobs make the round's work depend far less on the workload seed than a
// few long ones would.
constexpr std::uint64_t kShortJobTests = 5000;
constexpr std::uint64_t kVictimTests = 20000;
constexpr std::uint64_t kCheckpointEvery = 4096;  // a multiple of the slice
constexpr const char* kVictim = "victim-reuse-boom";

/// The service's event sink. It keeps a copy of the victim job's newest
/// checkpoint, because the service deletes a job's checkpoint once the job
/// completes. It also feeds a SegmentClock with the round's progress: the
/// sum over jobs of the last test number each job's events reported. With
/// one lane the event sequence is the same in every round, so the segments
/// are too; `boundaries` lists the event after which each one closed.
class EventSink final : public std::streambuf {
 public:
  EventSink(std::string keep_path, SegmentClock& clock)
      : keep_path_(std::move(keep_path)), clock_(clock) {}
  [[nodiscard]] std::uint64_t copies() const noexcept { return copies_; }
  [[nodiscard]] const std::string& boundaries() const noexcept { return boundaries_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof()) {
      return traits_type::not_eof(ch);
    }
    if (ch != '\n') {
      line_.push_back(static_cast<char>(ch));
      return ch;
    }
    ++events_;
    const std::string job = field("\"job\":\"");
    const std::string marker = "\"path\":\"";
    const std::size_t at = line_.find(marker);
    if (line_.find("\"event\":\"checkpoint\"") != std::string::npos && job == kVictim &&
        at != std::string::npos) {
      const std::size_t begin = at + marker.size();
      const std::string checkpoint = line_.substr(begin, line_.find('"', begin) - begin);
      fs::copy_file(checkpoint, keep_path_, fs::copy_options::overwrite_existing);
      ++copies_;
    }
    // Progress comes from the events a lane emits inside a slice. A job's
    // "done" event is emitted after its slice is released, so the last
    // one may arrive after drain() returns; "accepted" carries the budget.
    const std::string event = field("\"event\":\"");
    const std::string test = event == "new_coverage" || event == "checkpoint"
                                 ? field("\"test\":")
                                 : std::string();
    if (!job.empty() && !test.empty()) {
      std::uint64_t& last = last_test_[job];
      const std::uint64_t now = std::stoull(test);
      progress_ += now - std::min(last, now);
      last = std::max(last, now);
      if (clock_.progress(progress_)) {
        boundaries_ += std::to_string(events_) + ",";
      }
    }
    line_.clear();
    return ch;
  }

 private:
  /// The value after `key` in the current line: up to the next quote,
  /// comma or brace; empty when the key is absent.
  [[nodiscard]] std::string field(const std::string& key) const {
    const std::size_t at = line_.find(key);
    if (at == std::string::npos) {
      return {};
    }
    const std::size_t begin = at + key.size();
    return line_.substr(begin, line_.find_first_of("\",}", begin) - begin);
  }

  std::string keep_path_;
  SegmentClock& clock_;
  std::string line_;
  std::uint64_t copies_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t progress_ = 0;
  std::map<std::string, std::uint64_t> last_test_;
  std::string boundaries_;
};

class ServiceResume final : public Workload {
 public:
  explicit ServiceResume(const Options& options) : Workload(options) {
    std::uint64_t index = 2000;
    const auto add_job = [&](const std::string& name, std::vector<std::string> pairs,
                             std::uint64_t tests) {
      pairs.insert(pairs.end(), {"bugs=none", "tests=" + std::to_string(tests),
                                 "seed=" + std::to_string(cell_seed(o_.seed, index++))});
      cells_.push_back(Cell{name, config_of(pairs), harness::StopCondition::max_tests(tests)});
    };
    for (const char* fuzzer : {"thehuzz", "ucb", "exp3", "reuse"}) {
      for (const soc::CoreKind core : soc::kAllCores) {
        const std::string core_name(soc::core_name(core));
        add_job(std::string("job-") + fuzzer + "-" + core_name,
                {std::string("fuzzer=") + fuzzer, "core=" + core_name}, kShortJobTests);
      }
    }
    add_job(kVictim,
            {"fuzzer=reuse", "core=boom", "corpus-in=" + path("prep-boom.corpus"),
             "corpus-out=" + path(std::string(kVictim) + ".corpus")},
            kVictimTests);
    // One lane: the service's dispatcher thread steps every job. A second
    // lane thread put the wall-time rate at the mercy of a second vCPU.
    service_config_.workers = 1;
    service_config_.per_tenant_cap = cells_.size();
    service_config_.checkpoint_every = kCheckpointEvery;
    service_config_.checkpoint_dir = path("checkpoints");
  }

  void prepare() override {
    fs::create_directories(service_config_.checkpoint_dir);
    harness::Campaign campaign(config_of(
        {"fuzzer=reuse", "core=boom", "bugs=none",
         "tests=" + std::to_string(kPrepCorpusTests),
         "seed=" + std::to_string(cell_seed(o_.seed, 2100)),
         "corpus-out=" + path("prep-boom.corpus")}));
    campaign.run();
    campaign.save_corpus();
  }

  void build() override {
    keeper_ = std::make_unique<EventSink>(path("victim-late.ckpt"), clock_);
    events_ = std::make_unique<std::ostream>(keeper_.get());
    service_ = std::make_unique<harness::CampaignService>(service_config_, events_.get());
    for (const Cell& cell : cells_) {
      service_->submit(harness::JobSpec{"bench", cell.label, cell.config, path(cell.label)});
    }
  }

  Round run(Ledger& ledger) override {
    Round round;
    const std::int64_t start = now_ns();
    clock_.start();
    service_->start();
    service_->drain();
    clock_.mark();
    round.run_s = seconds_since(start);
    round.segment_s = clock_.seconds();
    service_->stop();
    round.fingerprint += "segments after events " + keeper_->boundaries() + ";";
    for (const harness::JobStatus& job : service_->jobs()) {
      round.tests += job.tests_executed;
      round.timed_tests += job.tests_executed;
      round.covered += job.covered;
      round.fingerprint += format("%s:%s:%llu:%zu:%llu;", job.name.c_str(),
                                  std::string(harness::job_state_name(job.state)).c_str(),
                                  static_cast<unsigned long long>(job.tests_executed),
                                  job.covered,
                                  static_cast<unsigned long long>(job.mismatches));
      std::string failure;
      if (job.state != harness::JobState::kDone) {
        failure = "service-resume " + job.name + ": ended " +
                  std::string(harness::job_state_name(job.state)) + " " + job.error;
      } else if (job.mismatches != 0) {
        failure = "service-resume " + job.name + ": mismatches on a bugs=none core";
      }
      ledger.record(failure);
    }
    std::string failure;
    const std::string threw = guarded([&] { failure = resume_victim(round); });
    ledger.record(threw.empty() ? failure : "service-resume: the resume " + threw);
    return round;
  }

  void teardown() override {
    service_.reset();
    events_.reset();
    keeper_.reset();
  }

  std::vector<Cell> cells() const override { return cells_; }
  std::pair<std::size_t, std::uint64_t> checkpoint_cell() const override {
    return {cells_.size() - 1, last_checkpoint_step()};
  }

  void describe(const Round& round, Report& report) const override {
    report.lines.push_back(format(
        "  jobs: %zu x %llu tests and %s x %llu tests on %u lane, slice %llu, "
        "checkpoint every %llu; resumed %s from step %llu",
        cells_.size() - 1, static_cast<unsigned long long>(kShortJobTests), kVictim,
        static_cast<unsigned long long>(kVictimTests), service_config_.workers, static_cast<unsigned long long>(service_config_.slice),
        static_cast<unsigned long long>(kCheckpointEvery), kVictim,
        static_cast<unsigned long long>(round.resume_steps)));
  }

 private:
  [[nodiscard]] static std::uint64_t last_checkpoint_step() {
    return (kVictimTests - 1) / kCheckpointEvery * kCheckpointEvery;
  }

  /// Resumes the victim from its kept checkpoint in a fresh service and
  /// compares the artifacts with the uninterrupted run's. Returns the
  /// failure, empty on success.
  std::string resume_victim(Round& round) {
    const std::string prefix = path(kVictim);
    const std::vector<std::string> artifacts = {prefix + ".json", prefix + ".csv",
                                                prefix + ".corpus", prefix + ".corpus.json"};
    std::vector<std::string> reference;
    for (const std::string& artifact : artifacts) {
      reference.push_back(read_bytes(artifact));
      fs::remove(artifact);
    }
    const std::string kept = path("victim-late.ckpt");
    if (keeper_->copies() == 0 || !fs::exists(kept)) {
      return "service-resume: no checkpoint of " + std::string(kVictim) + " was written";
    }
    harness::CampaignService resumed(service_config_);
    const std::int64_t start = now_ns();
    const std::string name = resumed.resume_from_checkpoint(kept);
    round.resume_s = seconds_since(start);
    const std::optional<harness::JobStatus> at = resumed.status(name);
    round.resume_steps = at ? at->tests_executed : 0;
    resumed.start();
    resumed.drain();
    resumed.stop();
    fs::remove(kept);
    round.fingerprint += format("resumed@%llu;", static_cast<unsigned long long>(round.resume_steps));
    if (round.resume_steps != last_checkpoint_step()) {
      return format("service-resume: resumed at step %llu, expected %llu",
                    static_cast<unsigned long long>(round.resume_steps),
                    static_cast<unsigned long long>(last_checkpoint_step()));
    }
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
      if (!fs::exists(artifacts[i]) || read_bytes(artifacts[i]) != reference[i]) {
        return "service-resume: resumed artifact " + artifacts[i] +
               " differs from the uninterrupted run";
      }
    }
    return {};
  }

  std::vector<Cell> cells_;
  harness::ServiceConfig service_config_;
  SegmentClock clock_;
  std::unique_ptr<EventSink> keeper_;
  std::unique_ptr<std::ostream> events_;
  std::unique_ptr<harness::CampaignService> service_;
};

// -------------------------------------------------------------- measuring

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "clean-sweep") {
    return std::make_unique<CleanSweep>(o);
  }
  if (o.workload == "bug-hunt") {
    return std::make_unique<BugHunt>(o);
  }
  if (o.workload == "service-resume") {
    return std::make_unique<ServiceResume>(o);
  }
  throw std::invalid_argument("unknown workload '" + o.workload +
                              "' (known: clean-sweep, bug-hunt, service-resume)");
}

[[nodiscard]] double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A JSON array of numbers; non-finite values (censored trials) are null.
[[nodiscard]] std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += std::isfinite(values[i]) ? format("%.17g", values[i]) : "null";
  }
  return out + "]";
}

/// Times the set-up kSetupOnlySamples times, runs one round and reports
/// the raw samples as one JSON object; run.py merges the samples of
/// several processes and checks that their exact outcomes agree.
void untraced(const Options& o, Workload& workload, Report& report) {
  workload.prepare();
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupOnlySamples; ++i) {
    const std::int64_t t = now_ns();
    workload.build();
    setup_s.push_back(seconds_since(t));
    workload.teardown();
  }
  const std::int64_t t = now_ns();
  workload.build();
  setup_s.push_back(seconds_since(t));
  const Round round = workload.run(report.ledger);
  workload.teardown();

  const std::vector<double> rate = {static_cast<double>(round.tests) / round.run_s};
  std::vector<double> resume_s;
  if (round.resume_steps != 0) {
    resume_s.push_back(round.resume_s);
  }
  std::vector<double> detect_tests;
  for (const std::uint64_t tests : round.detect_tests) {
    detect_tests.push_back(tests != 0 ? static_cast<double>(tests) : kInf);
  }

  report.lines.push_back(format("e2ebench %s seed=%llu: one round of %llu tests",
                                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                                static_cast<unsigned long long>(round.tests)));
  workload.describe(round, report);
  report.sample_json = format(
      "{\"workload\": \"%s\", \"seed\": %llu, \"attempted\": %llu, \"failed\": %llu, "
      "\"tests_per_round\": %llu, \"timed_tests\": %llu, \"covered_points\": %llu, ",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(report.ledger.attempted()),
      static_cast<unsigned long long>(report.ledger.failed()),
      static_cast<unsigned long long>(round.tests),
      static_cast<unsigned long long>(round.timed_tests),
      static_cast<unsigned long long>(round.covered));
  // Labels, numbers and separators only, so it needs no JSON escaping.
  report.sample_json += "\"fingerprint\": \"" + round.fingerprint + "\"";
  report.sample_json += ", \"tests_per_s\": " + json_array(rate) +
                        ", \"segment_s\": " + json_array(round.segment_s) +
                        ", \"setup_s\": " + json_array(setup_s) +
                        ", \"resume_s\": " + json_array(resume_s) +
                        format(", \"resume_steps\": %llu",
                               static_cast<unsigned long long>(round.resume_steps)) +
                        ", \"detect_s\": " + json_array(round.detect_s) +
                        ", \"detect_tests\": " + json_array(detect_tests) +
                        format(", \"peak_rss_mb\": %.17g}", peak_rss_mib());
}

// ----------------------------------------------------------------- traced

/// A campaign's exact outcome, which tracing must not change.
[[nodiscard]] std::string outcome(const harness::Campaign& c) {
  return format("%llu tests, %zu points, %llu mismatches, %zu bugs detected",
                static_cast<unsigned long long>(c.tests_executed()), c.covered(),
                static_cast<unsigned long long>(c.mismatches()), c.detected_bug_count());
}

/// One cell's traced pass: Campaign construction and every Campaign::step
/// as spans, work counters from the campaign itself; then its layer replay.
struct TracedCell {
  std::uint64_t steps = 0;
  bool offers_to_corpus = false;
  WorkCounters counters;
  std::string failure;  // check_campaign of the traced campaign
  std::string outcome;
  std::pair<std::size_t, std::size_t> step_spans;  // [from, to) in the tracer
  std::pair<std::size_t, std::size_t> replay_spans;
  WorkCounters replay;
};

TracedCell trace_cell(const Cell& cell, Tracer& tracer) {
  TracedCell out;
  const std::size_t from = tracer.size();
  const std::int32_t ctor = tracer.begin(SpanName::kSetup);
  harness::Campaign campaign(cell.config);
  tracer.end(ctor);
  CounterObserver counters(campaign);
  while (!cell.stop.evaluate(campaign).has_value()) {
    const std::int32_t span = tracer.begin(SpanName::kStep);
    campaign.step();
    tracer.end(span);
  }
  if (campaign.corpus() != nullptr) {
    campaign.save_corpus();
  }
  counters.finish();
  out.step_spans = {from, tracer.size()};
  out.steps = campaign.tests_executed();
  out.offers_to_corpus =
      campaign.corpus() != nullptr || campaign.config().fuzzer == "reuse";
  out.counters = counters.counters();
  out.failure = check_campaign("traced " + cell.label, campaign);
  out.outcome = outcome(campaign);
  return out;
}

double per_k(std::uint64_t count, std::uint64_t tests) {
  return tests == 0 ? 0.0 : 1000.0 * static_cast<double>(count) / static_cast<double>(tests);
}

double per(std::uint64_t count, std::uint64_t tests) {
  return tests == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(tests);
}

void traced(const Options& o, Workload& workload, Report& report) {
  workload.prepare();
  const std::vector<Cell> cells = workload.cells();

  // Per cell, back to back so that a change in host speed hits all three:
  // an untraced run (the overhead baseline), the traced run, the replay.
  // Both campaigns pass check_campaign and reach the same exact outcome.
  std::uint64_t baseline_tests = 0;
  double baseline_s = 0;
  Tracer tracer;
  std::vector<TracedCell> traced_cells;
  WorkCounters replayed;
  for (const Cell& cell : cells) {
    const std::string label = "traced " + cell.label;
    std::string failure;
    const std::string threw = guarded([&] {
      std::string baseline;
      {
        harness::Campaign campaign(cell.config);
        const std::int64_t start = now_ns();
        baseline_tests += campaign.run_until(cell.stop).tests_executed;
        baseline_s += seconds_since(start);
        if (campaign.corpus() != nullptr) {
          campaign.save_corpus();
        }
        failure = check_campaign(label + " (untraced)", campaign);
        baseline = outcome(campaign);
      }
      TracedCell t = trace_cell(cell, tracer);
      if (failure.empty()) {
        failure = t.failure;
      }
      if (failure.empty() && t.outcome != baseline) {
        failure = label + ": " + t.outcome + ", untraced " + baseline;
      }
      const std::size_t from = tracer.size();
      t.replay = replay_layers(cell.config, kReplayTestsPerCell, tracer);
      t.replay_spans = {from, tracer.size()};
      replayed.add(t.replay);
      traced_cells.push_back(std::move(t));
    });
    report.ledger.record(threw.empty() ? failure : label + ": " + threw);
  }
  const auto [ckpt_cell, ckpt_steps] = workload.checkpoint_cell();
  std::uint64_t ckpt_bytes = 0;
  const std::string ckpt_threw = guarded([&] {
    ckpt_bytes = replay_checkpoint(cells[ckpt_cell].config, ckpt_steps,
                                   o.workdir + "/replay.ckpt", tracer);
  });
  report.ledger.record(ckpt_threw.empty() ? ckpt_threw
                                          : "traced checkpoint replay of " +
                                                cells[ckpt_cell].label + ": " + ckpt_threw);

  // Per-cell glue: the cell's mean step minus the replayed cost of the
  // layers its policy calls, scaled to the campaign's own work per test
  // (the simulators by cycles and instructions, compare by commits; the
  // replay's lineage runs longer programs than a campaign's). Reward,
  // scheduler, arms and observers stay in the glue.
  WorkCounters campaign_counters;
  double glue_ns = 0;
  double step_ns = 0;
  std::uint64_t steps = 0;
  for (const TracedCell& t : traced_cells) {
    const WorkCounters& rc = t.replay;
    campaign_counters.add(t.counters);
    const auto cell_steps = tracer.totals(t.step_spans.first, t.step_spans.second);
    const auto cell_replay = tracer.totals(t.replay_spans.first, t.replay_spans.second);
    const double cell_step_ns = cell_steps.count(SpanName::kStep)
                                    ? cell_steps.at(SpanName::kStep).total_ns
                                    : 0.0;
    const auto steps_d = static_cast<double>(t.steps);
    double layers_ns = 0;
    for (const auto& [name, totals] : cell_replay) {
      switch (name) {
        case SpanName::kPipeline:
          layers_ns += totals.total_ns * per(t.counters.dut_cycles, rc.dut_cycles);
          break;
        case SpanName::kIss:
          layers_ns += totals.total_ns * per(t.counters.golden_instret, rc.golden_instret);
          break;
        case SpanName::kCompare:
          layers_ns += totals.total_ns * per(t.counters.commits, rc.commits);
          break;
        case SpanName::kReplayTest:
        case SpanName::kReward:
          break;
        case SpanName::kCorpusOffer:
          if (!t.offers_to_corpus) {
            break;
          }
          [[fallthrough]];
        default:
          layers_ns += totals.total_ns / static_cast<double>(rc.tests) * steps_d;
      }
    }
    step_ns += cell_step_ns;
    steps += t.steps;
    glue_ns += cell_step_ns - layers_ns;
  }

  const auto all = tracer.totals(0, tracer.size());
  auto mean_ns = [&](SpanName name) {
    const auto it = all.find(name);
    return it == all.end() || it->second.calls == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.calls);
  };
  auto total_ns = [&](SpanName name) {
    const auto it = all.find(name);
    return it == all.end() ? 0.0 : it->second.total_ns;
  };
  const double step_us = step_ns / static_cast<double>(steps) / 1e3;
  const double untraced_step_us = baseline_s * 1e6 / static_cast<double>(baseline_tests);
  const WorkCounters& cc = campaign_counters;
  const WorkCounters& rc = replayed;

  report.metrics = {
      {"harness.step_us", step_us, "us"},
      {"harness.untraced_step_us", untraced_step_us, "us"},
      {"harness.trace_overhead", step_us / untraced_step_us - 1.0, "ratio"},
      {"core.glue_us", glue_ns / static_cast<double>(steps) / 1e3, "us"},
      {"core.reward_us", mean_ns(SpanName::kReward) / 1e3, "us"},
      {"harness.setup_ms", mean_ns(SpanName::kSetup) / 1e6, "ms"},
      {"soc.pipeline_us", mean_ns(SpanName::kPipeline) / 1e3, "us"},
      {"soc.ns_per_cycle", total_ns(SpanName::kPipeline) / static_cast<double>(rc.dut_cycles), "ns"},
      {"golden.iss_us", mean_ns(SpanName::kIss) / 1e3, "us"},
      {"golden.ns_per_instr", total_ns(SpanName::kIss) / static_cast<double>(rc.golden_instret), "ns"},
      {"isa.decode_build_us", mean_ns(SpanName::kDecodeBuild) / 1e3, "us"},
      {"fuzz.compare_us", mean_ns(SpanName::kCompare) / 1e3, "us"},
      {"coverage.absorb_us", mean_ns(SpanName::kAbsorb) / 1e3, "us"},
      {"mab.select_ns", mean_ns(SpanName::kSelect), "ns"},
      {"mab.update_ns", mean_ns(SpanName::kUpdate), "ns"},
      {"mutation.make_mutant_us", mean_ns(SpanName::kMakeMutant) / 1e3, "us"},
      {"fuzz.make_seed_us", mean_ns(SpanName::kMakeSeed) / 1e3, "us"},
      {"fuzz.corpus_offer_us", mean_ns(SpanName::kCorpusOffer) / 1e3, "us"},
      {"replay.self_us", all.count(SpanName::kReplayTest)
                             ? all.at(SpanName::kReplayTest).self_ns /
                                   static_cast<double>(all.at(SpanName::kReplayTest).calls) / 1e3
                             : 0.0,
       "us"},
      {"harness.checkpoint_save_ms", mean_ns(SpanName::kCheckpointSave) / 1e6, "ms"},
      {"harness.checkpoint_load_ms", mean_ns(SpanName::kCheckpointLoad) / 1e6, "ms"},
      {"harness.replay_us_per_step", total_ns(SpanName::kResume) / static_cast<double>(ckpt_steps) / 1e3, "us"},
      {"harness.checkpoint_bytes", static_cast<double>(ckpt_bytes), "bytes"},
      // Exact counters of the campaigns themselves.
      {"soc.cycles_per_test", per(cc.dut_cycles, cc.tests), "cycles"},
      {"soc.commits_per_test", per(cc.commits, cc.tests), "commits"},
      {"soc.traps_per_test", per(cc.traps, cc.tests), "traps"},
      {"soc.firings_per_ktest", per_k(cc.firings, cc.tests), "firings"},
      {"golden.instrs_per_test", per(cc.golden_instret, cc.tests), "instrs"},
      {"isa.decode_miss_share", per(cc.decode_misses, cc.decode_lookups), "ratio"},
      {"fuzz.mismatch_share", per(cc.mismatches, cc.tests), "ratio"},
      {"coverage.new_points_per_ktest", per_k(cc.new_points, cc.tests), "points"},
      {"core.arm_resets_per_ktest", per_k(cc.arm_resets, cc.tests), "resets"},
      {"fuzz.corpus_entries", static_cast<double>(cc.corpus_entries), "entries"},
      // The same counters over the replay, to show how representative it is.
      {"replay.tests", static_cast<double>(rc.tests), "tests"},
      {"replay.cycles_per_test", per(rc.dut_cycles, rc.tests), "cycles"},
      {"replay.commits_per_test", per(rc.commits, rc.tests), "commits"},
      {"replay.traps_per_test", per(rc.traps, rc.tests), "traps"},
      {"replay.firings_per_ktest", per_k(rc.firings, rc.tests), "firings"},
      {"replay.instrs_per_test", per(rc.golden_instret, rc.tests), "instrs"},
      {"replay.decode_miss_share", per(rc.decode_misses, rc.decode_lookups), "ratio"},
      {"replay.mismatch_share", per(rc.mismatches, rc.tests), "ratio"},
      {"replay.new_points_per_ktest", per_k(rc.new_points, rc.tests), "points"},
      {"coverage.hits_per_test", per(rc.coverage_hits, rc.tests), "points"},
      {"replay.corpus_entries", static_cast<double>(rc.corpus_entries), "entries"},
  };
  report.lines.push_back(format("e2ebench %s seed=%llu traced: %zu cells, %llu steps, "
                                "%llu replay tests, %zu spans",
                                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                                cells.size(), static_cast<unsigned long long>(steps),
                                static_cast<unsigned long long>(rc.tests), tracer.size()));
  report.lines.push_back(format(
      "  tracing overhead: traced harness.step_us %.4f vs untraced %.4f us/test (%+.1f%%)",
      step_us, untraced_step_us, 100.0 * (step_us / untraced_step_us - 1.0)));
  report.lines.push_back("  span totals (self time = span time minus child spans):");
  for (const auto& [name, totals] : all) {
    report.lines.push_back(format("    %-26s calls %9llu  total %10.3f ms  self %10.3f ms",
                                  std::string(span_name(name)).c_str(),
                                  static_cast<unsigned long long>(totals.calls),
                                  totals.total_ns / 1e6, totals.self_ns / 1e6));
  }
  report.lines.push_back("  work counters, campaign | replay:");
  auto side_by_side = [&](const char* what, double campaign, double replay) {
    report.lines.push_back(format("    %-22s %12.4f | %12.4f", what, campaign, replay));
  };
  side_by_side("cycles/test", per(cc.dut_cycles, cc.tests), per(rc.dut_cycles, rc.tests));
  side_by_side("commits/test", per(cc.commits, cc.tests), per(rc.commits, rc.tests));
  side_by_side("traps/test", per(cc.traps, cc.tests), per(rc.traps, rc.tests));
  side_by_side("golden instrs/test", per(cc.golden_instret, cc.tests),
               per(rc.golden_instret, rc.tests));
  side_by_side("firings/ktest", per_k(cc.firings, cc.tests), per_k(rc.firings, rc.tests));
  side_by_side("mismatch share", per(cc.mismatches, cc.tests), per(rc.mismatches, rc.tests));
  side_by_side("decode miss share", per(cc.decode_misses, cc.decode_lookups),
               per(rc.decode_misses, rc.decode_lookups));
  side_by_side("new points/ktest", per_k(cc.new_points, cc.tests),
               per_k(rc.new_points, rc.tests));
  side_by_side("core.glue_us", glue_ns / static_cast<double>(steps) / 1e3, 0.0);
  if (!o.trace_out.empty()) {
    tracer.write_csv(o.trace_out);
    report.lines.push_back("  spans written to " + o.trace_out);
  }
}

}  // namespace

Report run_workload(const Options& options) {
  Report report;
  const std::unique_ptr<Workload> workload = make_workload(options);
  try {
    if (options.trace) {
      traced(options, *workload, report);
    } else {
      untraced(options, *workload, report);
    }
  } catch (const std::exception& e) {
    report.ledger.record(std::string("workload threw: ") + e.what());
    report.metrics.clear();
    report.sample_json.clear();
  }
  return report;
}

}  // namespace e2ebench
