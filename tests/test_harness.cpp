// Harness tests: campaign construction for every registered policy,
// detection accounting through the experiment engine, coverage curves, the
// Fig. 4 speedup/increment math, the shared worker pool and the report
// renderers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/curves.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/worker_pool.hpp"

namespace mabfuzz::harness {
namespace {

CampaignConfig small_config(std::string_view policy) {
  CampaignConfig config;
  config.core = soc::CoreKind::kCva6;
  config.fuzzer = std::string(policy);
  config.max_tests = 150;
  return config;
}

std::string sanitized(std::string_view name) {
  std::string out;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    }
  }
  return out;
}

// --- campaign construction per policy ----------------------------------------

class CampaignBuild : public ::testing::TestWithParam<std::string_view> {};

TEST_P(CampaignBuild, ConstructsAndSteps) {
  Campaign campaign(small_config(GetParam()));
  EXPECT_FALSE(std::string(campaign.fuzzer().name()).empty());
  for (int i = 0; i < 20; ++i) {
    campaign.step();
  }
  EXPECT_EQ(campaign.tests_executed(), 20u);
  EXPECT_GT(campaign.covered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CampaignBuild,
                         ::testing::ValuesIn(kAllPolicies),
                         [](const ::testing::TestParamInfo<std::string_view>& param_info) {
                           return sanitized(param_info.param);
                         });

TEST(PolicyLists, CoverThePaperSweeps) {
  EXPECT_EQ(kAllPolicies.size(), 5u);  // baseline + 4 MAB variants
  EXPECT_EQ(kMabPolicies.size(), 4u);  // thompson rides in the sweep now
  EXPECT_NE(std::find(kMabPolicies.begin(), kMabPolicies.end(), "thompson"),
            kMabPolicies.end());
}

// --- detection -------------------------------------------------------------------

TEST(Detection, UndetectedIsCensored) {
  TrialMatrix matrix;
  matrix.base = small_config("thehuzz");
  matrix.base.bugs = soc::BugSet::none();  // nothing can ever mismatch
  matrix.base.max_tests = 50;
  ExperimentOptions options;
  options.target_bug = soc::BugId::kV4LostWriteback;
  const ExperimentResult result = Experiment(std::move(matrix), options).run();
  ASSERT_EQ(result.trials.size(), 1u);
  const TrialResult& trial = result.trials[0];
  EXPECT_FALSE(trial.target_detected);
  EXPECT_EQ(trial.stop, StopReason::kMaxTests);
  EXPECT_EQ(trial.detection_tests, 50u);  // right-censored at the cap
}

// --- curves -----------------------------------------------------------------------

TEST(Curves, MonotoneNonDecreasing) {
  CampaignConfig config = small_config("thehuzz");
  config.max_tests = 120;
  config.snapshot_every = 10;
  Campaign campaign(config);
  campaign.run();
  const CoverageCurve curve = curve_from_snapshots(campaign.snapshots());
  ASSERT_FALSE(curve.grid.empty());
  for (std::size_t i = 1; i < curve.covered.size(); ++i) {
    EXPECT_GE(curve.covered[i], curve.covered[i - 1]);
  }
  EXPECT_EQ(curve.grid.back(), 120u);
  EXPECT_GT(curve.universe, 0u);
}

TEST(Curves, TestsToReach) {
  CoverageCurve curve;
  curve.grid = {10, 20, 30};
  curve.covered = {5, 15, 20};
  curve.final_covered = 20;
  EXPECT_EQ(tests_to_reach(curve, 5), std::optional<std::uint64_t>{10});
  EXPECT_EQ(tests_to_reach(curve, 6), std::optional<std::uint64_t>{20});
  EXPECT_EQ(tests_to_reach(curve, 21), std::nullopt);  // never reached
}

TEST(Curves, TestsToReachBoundaries) {
  // A grid point of 0 is a real answer, not a "never reached" sentinel.
  CoverageCurve curve;
  curve.grid = {0, 10};
  curve.covered = {3, 8};
  curve.final_covered = 8;
  EXPECT_EQ(tests_to_reach(curve, 0), std::optional<std::uint64_t>{0});
  EXPECT_EQ(tests_to_reach(curve, 3), std::optional<std::uint64_t>{0});
  EXPECT_EQ(tests_to_reach(curve, 8), std::optional<std::uint64_t>{10});
  EXPECT_EQ(tests_to_reach(curve, 8.1), std::nullopt);
  // Empty curve never reaches anything, even a zero target.
  EXPECT_EQ(tests_to_reach(CoverageCurve{}, 0), std::nullopt);
  // Exact equality at the last sample still counts as reached.
  EXPECT_EQ(tests_to_reach(curve, curve.final_covered),
            std::optional<std::uint64_t>{10});
}

TEST(Curves, SpeedupReachedAtZeroTestsIsFinite) {
  CoverageCurve base;
  base.grid = {100, 200};
  base.covered = {0, 0};
  base.final_covered = 0;
  CoverageCurve cand;
  cand.grid = {0, 100};
  cand.covered = {0, 5};
  cand.final_covered = 5;
  // Candidate satisfies the (degenerate) target at grid point 0; the old
  // 0-as-sentinel contract misclassified this as "never reached".
  const double speedup = coverage_speedup(base, cand);
  EXPECT_TRUE(std::isfinite(speedup));
  EXPECT_DOUBLE_EQ(speedup, 200.0);  // divisor clamped to 1 test
}

TEST(Curves, SpeedupMath) {
  CoverageCurve base;
  base.grid = {100, 200, 300};
  base.covered = {50, 70, 80};
  base.final_covered = 80;
  CoverageCurve fast;
  fast.grid = {100, 200, 300};
  fast.covered = {80, 90, 95};
  fast.final_covered = 95;
  // fast reaches 80 at its first sample (100 tests): 300/100 = 3x.
  EXPECT_DOUBLE_EQ(coverage_speedup(base, fast), 3.0);
  // A slower candidate that never reaches the target gets < 1.
  CoverageCurve slow;
  slow.grid = {100, 200, 300};
  slow.covered = {10, 20, 40};
  slow.final_covered = 40;
  EXPECT_LT(coverage_speedup(base, slow), 1.0);
}

TEST(Curves, IncrementPercent) {
  CoverageCurve base;
  base.final_covered = 1000;
  CoverageCurve cand;
  cand.final_covered = 1005;
  EXPECT_NEAR(coverage_increment_percent(base, cand), 0.5, 1e-9);
  EXPECT_NEAR(coverage_increment_percent(cand, base), -0.4975, 1e-3);
}

TEST(Curves, BuiltFromCampaignSnapshots) {
  std::vector<BatchSnapshot> snapshots = {{25, 10, 100}, {50, 30, 100}};
  const CoverageCurve curve = curve_from_snapshots(snapshots);
  EXPECT_EQ(curve.grid, (std::vector<std::uint64_t>{25, 50}));
  EXPECT_EQ(curve.covered, (std::vector<double>{10.0, 30.0}));
  EXPECT_EQ(curve.universe, 100u);
  EXPECT_DOUBLE_EQ(curve.final_covered, 30.0);
}

// --- worker pool --------------------------------------------------------------------

TEST(WorkerPool, ExecutesAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> counts(32);
  const PoolReport report =
      run_indexed(32, 0, [&](std::uint64_t r) { counts[r].fetch_add(1); });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tasks, 32u);
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(WorkerPool, CollectsEveryFailureAndKeepsRunning) {
  // The old parallel_runs helper recorded only the first exception and
  // dropped the rest; the pool must capture all of them, per index, while
  // the non-throwing tasks still run.
  std::vector<std::atomic<int>> counts(6);
  const PoolReport report = run_indexed(6, 3, [&](std::uint64_t r) {
    counts[r].fetch_add(1);
    if (r == 1) {
      throw std::runtime_error("boom-1");
    }
    if (r == 4) {
      throw std::runtime_error("boom-4");
    }
  });
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failed(), 2u);
  EXPECT_EQ(report.failures[0].index, 1u);  // sorted by index
  EXPECT_EQ(report.failures[0].message, "boom-1");
  EXPECT_EQ(report.failures[1].index, 4u);
  EXPECT_EQ(report.failures[1].message, "boom-4");
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1) << "a failure must not starve other tasks";
  }
}

TEST(WorkerPool, SingleWorkerCollectsFailuresToo) {
  const PoolReport report = run_indexed(3, 1, [&](std::uint64_t r) {
    if (r != 1) {
      throw std::invalid_argument("bad " + std::to_string(r));
    }
  });
  ASSERT_EQ(report.failed(), 2u);
  EXPECT_EQ(report.failures[0].message, "bad 0");
  EXPECT_EQ(report.failures[1].message, "bad 2");
}

TEST(WorkerPool, ZeroTasksIsNoop) {
  const PoolReport report =
      run_indexed(0, 0, [&](std::uint64_t) { FAIL(); });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tasks, 0u);
}

// --- report renderers ------------------------------------------------------------------

TEST(Report, Table1Renders) {
  Table1Row row;
  row.bug = soc::BugId::kV7EbreakInstret;
  row.thehuzz_tests = 927;
  row.speedup["epsilon-greedy"] = 308.89;
  row.speedup["ucb"] = 185.34;
  row.speedup["exp3"] = 73.16;
  std::ostringstream os;
  render_table1(os, {row});
  const std::string out = os.str();
  EXPECT_NE(out.find("V7"), std::string::npos);
  EXPECT_NE(out.find("308.89x"), std::string::npos);
  EXPECT_NE(out.find("CWE-1201"), std::string::npos);
}

TEST(Report, Table1HonorsColumnOrder) {
  Table1Row row;
  row.bug = soc::BugId::kV1FenceIDecode;
  row.thehuzz_tests = 10;
  row.speedup["ucb"] = 2.0;
  row.speedup["exp3"] = 3.0;
  std::ostringstream os;
  render_table1(os, {row}, {"ucb", "exp3"});
  const std::string out = os.str();
  EXPECT_LT(out.find("ucb Speedup"), out.find("exp3 Speedup"));
}

TEST(Report, Fig3Renders) {
  CoverageCurve curve;
  curve.grid = {10, 20};
  curve.covered = {100, 200};
  curve.universe = 1000;
  curve.final_covered = 200;
  std::map<std::string, CoverageCurve> curves;
  curves["thehuzz"] = curve;
  curves["ucb"] = curve;
  std::ostringstream os;
  render_fig3(os, "CVA6", curves);
  const std::string out = os.str();
  EXPECT_NE(out.find("CVA6"), std::string::npos);
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(Report, Fig4Renders) {
  Fig4Row row;
  row.core = "Rocket Core";
  row.speedup["exp3"] = 3.05;
  row.increment_percent["exp3"] = 0.68;
  std::ostringstream os;
  render_fig4(os, {row});
  const std::string out = os.str();
  EXPECT_NE(out.find("Rocket Core"), std::string::npos);
  EXPECT_NE(out.find("3.05x"), std::string::npos);
}

TEST(Report, AsciiPlotHandlesFlatSeries) {
  CoverageCurve curve;
  curve.grid = {1, 2, 3};
  curve.covered = {5, 5, 5};
  std::ostringstream os;
  ascii_plot(os, {{"flat", &curve}});
  EXPECT_FALSE(os.str().empty());
}

TEST(Report, ProgressObserverStreamsBatches) {
  CampaignConfig config = small_config("ucb");
  config.max_tests = 40;
  config.snapshot_every = 20;
  Campaign campaign(config);
  std::ostringstream os;
  ProgressObserver progress(os);
  campaign.add_observer(progress);
  campaign.run();
  const std::string out = os.str();
  EXPECT_NE(out.find("[20] covered"), std::string::npos);
  EXPECT_NE(out.find("[40] covered"), std::string::npos);
}

}  // namespace
}  // namespace mabfuzz::harness
