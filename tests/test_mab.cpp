// MAB algorithm tests: convergence on synthetic stationary bandits,
// exploration guarantees, the reset-arm modifications of Algorithms 1 & 2,
// and the string-keyed registry factory.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "mab/bandit.hpp"
#include "mab/epsilon_greedy.hpp"
#include "mab/exp3.hpp"
#include "mab/registry.hpp"
#include "mab/ucb.hpp"

namespace mabfuzz::mab {
namespace {

/// Stationary Bernoulli bandit for convergence tests.
class SyntheticBandit {
 public:
  SyntheticBandit(std::vector<double> means, std::uint64_t seed)
      : means_(std::move(means)), rng_(seed) {}

  double pull(std::size_t arm) { return rng_.next_bool(means_[arm]) ? 1.0 : 0.0; }
  [[nodiscard]] std::size_t best_arm() const {
    return static_cast<std::size_t>(
        std::max_element(means_.begin(), means_.end()) - means_.begin());
  }

 private:
  std::vector<double> means_;
  common::Xoshiro256StarStar rng_;
};

/// Plays `rounds` and returns the fraction of pulls on the best arm in the
/// final quarter of the horizon.
double late_best_arm_fraction(Bandit& bandit, SyntheticBandit& env, int rounds,
                              bool normalized) {
  const std::size_t best = env.best_arm();
  int late_best = 0;
  int late_total = 0;
  for (int t = 0; t < rounds; ++t) {
    const std::size_t arm = bandit.select();
    double reward = env.pull(arm);
    if (!normalized) {
      reward *= 10.0;  // un-normalised scale, as coverage rewards are
    }
    bandit.update(arm, reward);
    if (t >= rounds * 3 / 4) {
      ++late_total;
      late_best += arm == best;
    }
  }
  return static_cast<double>(late_best) / late_total;
}

// --- convergence (parameterised over algorithms) ---------------------------------

class Convergence : public ::testing::TestWithParam<std::string_view> {};

TEST_P(Convergence, FindsBestArmOnStationaryBandit) {
  BanditConfig config;
  config.num_arms = 5;
  config.rng_seed = 7;
  auto bandit = make_bandit(GetParam(), config);
  SyntheticBandit env({0.1, 0.2, 0.8, 0.3, 0.1}, 1234);
  const double frac = late_best_arm_fraction(
      *bandit, env, 4000, bandit->requires_normalized_reward());
  EXPECT_GT(frac, 0.5) << GetParam();
}

TEST_P(Convergence, AllArmsExplored) {
  BanditConfig config;
  config.num_arms = 8;
  config.rng_seed = 11;
  auto bandit = make_bandit(GetParam(), config);
  std::vector<int> pulls(8, 0);
  for (int t = 0; t < 2000; ++t) {
    const std::size_t arm = bandit->select();
    ++pulls[arm];
    bandit->update(arm, 0.1);
  }
  for (std::size_t a = 0; a < 8; ++a) {
    EXPECT_GT(pulls[a], 0) << GetParam() << " arm " << a;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, Convergence,
    ::testing::Values("epsilon-greedy", "ucb", "exp3", "thompson"),
    [](const ::testing::TestParamInfo<std::string_view>& param_info) {
      std::string name(param_info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// --- epsilon-greedy ------------------------------------------------------------------

TEST(EpsilonGreedyTest, IncrementalMeanUpdate) {
  EpsilonGreedy bandit(3, 0.0, common::Xoshiro256StarStar(1));
  bandit.update(0, 10.0);
  bandit.update(0, 20.0);
  EXPECT_DOUBLE_EQ(bandit.q(0), 15.0);
  EXPECT_EQ(bandit.n(0), 2u);
}

TEST(EpsilonGreedyTest, GreedyPicksArgmax) {
  EpsilonGreedy bandit(3, 0.0, common::Xoshiro256StarStar(2));
  bandit.update(1, 100.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(bandit.select(), 1u);
  }
}

TEST(EpsilonGreedyTest, EpsilonOneIsUniform) {
  EpsilonGreedy bandit(4, 1.0, common::Xoshiro256StarStar(3));
  bandit.update(0, 100.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    ++counts[bandit.select()];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, 1000, 150);
  }
}

TEST(EpsilonGreedyTest, ResetZeroesStats) {
  EpsilonGreedy bandit(3, 0.1, common::Xoshiro256StarStar(4));
  bandit.update(2, 50.0);
  bandit.reset_arm(2);
  EXPECT_DOUBLE_EQ(bandit.q(2), 0.0);
  EXPECT_EQ(bandit.n(2), 0u);
}

TEST(EpsilonGreedyTest, TieBreakIsNotAlwaysFirst) {
  EpsilonGreedy bandit(4, 0.0, common::Xoshiro256StarStar(5));
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 400; ++i) {
    ++counts[bandit.select()];  // all Q equal: ties broken randomly
  }
  int nonzero = 0;
  for (const int c : counts) {
    nonzero += c > 0;
  }
  EXPECT_EQ(nonzero, 4);
}

// --- UCB ---------------------------------------------------------------------------------

TEST(UcbTest, UnpulledArmsFirst) {
  Ucb bandit(4, common::Xoshiro256StarStar(6));
  std::vector<bool> pulled(4, false);
  for (int i = 0; i < 4; ++i) {
    const std::size_t arm = bandit.select();
    EXPECT_FALSE(pulled[arm]) << "arm pulled twice before others tried";
    pulled[arm] = true;
    bandit.update(arm, 0.0);
  }
}

TEST(UcbTest, BonusShrinksWithPulls) {
  Ucb bandit(2, common::Xoshiro256StarStar(7));
  // Arm 0: high value, many pulls. Arm 1: low value, few pulls.
  for (int i = 0; i < 50; ++i) {
    bandit.update(0, 1.0);
  }
  bandit.update(1, 0.0);
  // Eventually the exploration bonus must bring arm 1 back.
  bool arm1_selected = false;
  for (int i = 0; i < 200 && !arm1_selected; ++i) {
    const std::size_t arm = bandit.select();
    arm1_selected = arm == 1;
    bandit.update(arm, arm == 0 ? 1.0 : 0.0);
  }
  EXPECT_TRUE(arm1_selected);
}

TEST(UcbTest, ResetMakesArmUnpulled) {
  Ucb bandit(3, common::Xoshiro256StarStar(8));
  for (std::size_t a = 0; a < 3; ++a) {
    bandit.update(a, 1.0);
  }
  bandit.reset_arm(1);
  EXPECT_EQ(bandit.n(1), 0u);
  // An unpulled arm has infinite UCB: it must be selected immediately.
  EXPECT_EQ(bandit.select(), 1u);
}

// --- EXP3 -------------------------------------------------------------------------------------

TEST(Exp3Test, ProbabilitiesFormDistribution) {
  Exp3 bandit(5, 0.1, common::Xoshiro256StarStar(9));
  const auto p = bandit.probabilities();
  double total = 0;
  for (const double v : p) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Exp3Test, EtaFloorGuaranteesExploration) {
  Exp3 bandit(4, 0.2, common::Xoshiro256StarStar(10));
  // Pump one arm's weight sky-high.
  for (int i = 0; i < 50; ++i) {
    const std::size_t arm = bandit.select();
    bandit.update(arm, arm == 0 ? 1.0 : 0.0);
  }
  const auto p = bandit.probabilities();
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_GE(p[a], 0.2 / 4 - 1e-12);
  }
}

TEST(Exp3Test, RewardIncreasesWeight) {
  Exp3 bandit(3, 0.1, common::Xoshiro256StarStar(11));
  const std::size_t arm = bandit.select();
  const double before = bandit.weight(arm);
  bandit.update(arm, 1.0);
  EXPECT_GT(bandit.weight(arm), before);
}

TEST(Exp3Test, ZeroRewardKeepsWeight) {
  Exp3 bandit(3, 0.1, common::Xoshiro256StarStar(12));
  const std::size_t arm = bandit.select();
  const double before = bandit.weight(arm);
  bandit.update(arm, 0.0);
  EXPECT_DOUBLE_EQ(bandit.weight(arm), before);
}

TEST(Exp3Test, ResetSetsMeanOfOtherWeights) {
  Exp3 bandit(3, 0.1, common::Xoshiro256StarStar(13));
  // Manually skew weights through updates on arm 0.
  for (int i = 0; i < 30; ++i) {
    const std::size_t arm = bandit.select();
    bandit.update(arm, arm == 0 ? 1.0 : 0.0);
  }
  const double w1 = bandit.weight(1);
  const double w2 = bandit.weight(2);
  bandit.reset_arm(0);
  EXPECT_NEAR(bandit.weight(0), (w1 + w2) / 2.0, 1e-9);
}

TEST(Exp3Test, RequiresNormalizedRewardFlag) {
  Exp3 exp3(2, 0.1, common::Xoshiro256StarStar(14));
  Ucb ucb(2, common::Xoshiro256StarStar(15));
  EpsilonGreedy eps(2, 0.1, common::Xoshiro256StarStar(16));
  EXPECT_TRUE(exp3.requires_normalized_reward());
  EXPECT_FALSE(ucb.requires_normalized_reward());
  EXPECT_FALSE(eps.requires_normalized_reward());
}

TEST(Exp3Test, SurvivesLongGreedyStreak) {
  // Weight renormalisation must prevent overflow over very long runs.
  Exp3 bandit(2, 0.5, common::Xoshiro256StarStar(17));
  for (int i = 0; i < 200000; ++i) {
    bandit.update(0, 1.0);
  }
  const auto p = bandit.probabilities();
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_GT(p[1], 0.0);
}

// --- reset_arm edge cases (Algorithms 1 & 2) -----------------------------------------------------

TEST(ResetArmEdgeCases, UcbResetOfCurrentBestArmMakesItExplorationTarget) {
  Ucb bandit(3, common::Xoshiro256StarStar(41));
  // Make arm 2 clearly the best and pull every arm at least once.
  for (std::size_t a = 0; a < 3; ++a) {
    bandit.update(a, a == 2 ? 1.0 : 0.1);
  }
  for (int i = 0; i < 20; ++i) {
    bandit.update(2, 1.0);
  }
  ASSERT_GT(bandit.q(2), bandit.q(0));
  ASSERT_GT(bandit.q(2), bandit.q(1));
  bandit.reset_arm(2);
  // N(2)=0 gives the fresh arm infinite UCB bonus: it must be re-explored
  // immediately — the behaviour Algorithm 1's modification is designed for.
  EXPECT_EQ(bandit.n(2), 0u);
  EXPECT_DOUBLE_EQ(bandit.q(2), 0.0);
  EXPECT_EQ(bandit.select(), 2u);
}

TEST(ResetArmEdgeCases, EpsilonGreedyResetOfCurrentBestArmDethronesIt) {
  EpsilonGreedy bandit(3, /*epsilon=*/0.0, common::Xoshiro256StarStar(42));
  bandit.update(0, 0.4);
  bandit.update(1, 0.9);
  bandit.update(2, 0.2);
  ASSERT_EQ(bandit.select(), 1u);
  bandit.reset_arm(1);
  // Q(1)=0 now trails arm 0; with epsilon=0 the greedy pick must move.
  EXPECT_DOUBLE_EQ(bandit.q(1), 0.0);
  EXPECT_EQ(bandit.n(1), 0u);
  EXPECT_EQ(bandit.select(), 0u);
}

TEST(ResetArmEdgeCases, Exp3ResetOfDominantArmLevelsTheDistribution) {
  Exp3 bandit(3, 0.1, common::Xoshiro256StarStar(43));
  for (int i = 0; i < 50; ++i) {
    const std::size_t arm = bandit.select();
    bandit.update(arm, arm == 0 ? 1.0 : 0.0);
  }
  ASSERT_GT(bandit.weight(0), bandit.weight(1));
  bandit.reset_arm(0);
  // W(0) <- mean of the survivors: no longer dominant, still positive.
  EXPECT_NEAR(bandit.weight(0), (bandit.weight(1) + bandit.weight(2)) / 2.0,
              1e-9);
  const auto p = bandit.probabilities();
  EXPECT_GT(p[0], 0.0);
  EXPECT_LT(p[0], 0.5);
}

TEST(ResetArmEdgeCases, ResetBeforeAnyPullIsIdentity) {
  Ucb ucb(2, common::Xoshiro256StarStar(44));
  EpsilonGreedy eps(2, 0.1, common::Xoshiro256StarStar(45));
  Exp3 exp3(2, 0.1, common::Xoshiro256StarStar(46));
  ucb.reset_arm(0);
  eps.reset_arm(0);
  exp3.reset_arm(0);
  EXPECT_EQ(ucb.n(0), 0u);
  EXPECT_DOUBLE_EQ(ucb.q(0), 0.0);
  EXPECT_EQ(eps.n(0), 0u);
  EXPECT_DOUBLE_EQ(eps.q(0), 0.0);
  // Fresh EXP3 weights are all 1.0; resetting one to the mean of the others
  // must keep it at exactly 1.0.
  EXPECT_DOUBLE_EQ(exp3.weight(0), 1.0);
  const auto p = exp3.probabilities();
  EXPECT_DOUBLE_EQ(p[0], p[1]);
}

TEST(ResetArmEdgeCases, OutOfRangeArmIsIgnoredByAllAlgorithms) {
  Ucb ucb(2, common::Xoshiro256StarStar(47));
  EpsilonGreedy eps(2, 0.1, common::Xoshiro256StarStar(48));
  Exp3 exp3(2, 0.1, common::Xoshiro256StarStar(49));
  ucb.update(0, 0.7);
  eps.update(0, 0.7);
  exp3.update(exp3.select(), 0.7);
  const double ucb_q = ucb.q(0);
  const double eps_q = eps.q(0);
  const double w0 = exp3.weight(0);
  const double w1 = exp3.weight(1);
  for (const std::size_t bad : {std::size_t{2}, std::size_t{1000},
                                static_cast<std::size_t>(-1)}) {
    ucb.reset_arm(bad);
    eps.reset_arm(bad);
    exp3.reset_arm(bad);
    ucb.update(bad, 1.0);
    eps.update(bad, 1.0);
    exp3.update(bad, 1.0);
  }
  // In-range state is untouched by any of the out-of-range calls.
  EXPECT_DOUBLE_EQ(ucb.q(0), ucb_q);
  EXPECT_DOUBLE_EQ(eps.q(0), eps_q);
  EXPECT_DOUBLE_EQ(exp3.weight(0), w0);
  EXPECT_DOUBLE_EQ(exp3.weight(1), w1);
}

// --- factory -------------------------------------------------------------------------------------

TEST(Factory, BuildsAllAlgorithmsByName) {
  BanditConfig config;
  config.num_arms = 10;
  EXPECT_EQ(make_bandit("epsilon-greedy", config)->name(), "epsilon-greedy");
  EXPECT_EQ(make_bandit("ucb", config)->name(), "ucb");
  EXPECT_EQ(make_bandit("exp3", config)->name(), "exp3");
  EXPECT_EQ(make_bandit("thompson", config)->name(), "thompson");
  EXPECT_EQ(make_bandit("ucb", config)->num_arms(), 10u);
}

TEST(Factory, AliasResolvesToCanonicalPolicy) {
  BanditConfig config;
  EXPECT_EQ(make_bandit("eps", config)->name(), "epsilon-greedy");
  EXPECT_EQ(BanditRegistry::instance().canonical_name("eps"), "epsilon-greedy");
}

TEST(Factory, ZeroArmsThrows) {
  BanditConfig config;
  config.num_arms = 0;
  EXPECT_THROW((void)make_bandit("ucb", config), std::invalid_argument);
}

}  // namespace
}  // namespace mabfuzz::mab
