// Coverage infrastructure tests: registry, bitmap maps, accumulator and
// the γ-window saturation monitor, including parameterised property-style
// sweeps over universe sizes.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "coverage/context.hpp"
#include "coverage/map.hpp"
#include "coverage/monitor.hpp"
#include "coverage/registry.hpp"
#include "soc/cores.hpp"
#include "soc/pipeline.hpp"

namespace mabfuzz::coverage {
namespace {

// --- Registry -----------------------------------------------------------------

TEST(Registry, SequentialIds) {
  Registry reg;
  EXPECT_EQ(reg.add("a"), 0u);
  EXPECT_EQ(reg.add("b"), 1u);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(0), "a");
}

TEST(Registry, ArrayRegistration) {
  Registry reg;
  const PointId base = reg.add_array("cache/set", 4);
  EXPECT_EQ(base, 0u);
  EXPECT_EQ(reg.size(), 4u);
  EXPECT_EQ(reg.name(2), "cache/set[2]");
}

TEST(Registry, NameOutsideRegistryThrows) {
  Registry reg;
  EXPECT_THROW((void)reg.name(0), std::out_of_range);
  reg.add_array("arr", 3);
  reg.add("one");
  EXPECT_EQ(reg.name(3), "one");
  EXPECT_THROW((void)reg.name(4), std::out_of_range);
}

TEST(Registry, EmptyArrayLeavesNoGroup) {
  Registry reg;
  reg.add("a");
  EXPECT_EQ(reg.add_array("none", 0), 1u);
  EXPECT_EQ(reg.add("b"), 1u);
  EXPECT_EQ(reg.size(), 2u);
  ASSERT_EQ(reg.groups().size(), 2u);
  EXPECT_EQ(reg.name(1), "b");
}

// The registry stores groups; every point of a real core must still read
// back under the name the per-point registry gave it: "<prefix>[i]" for an
// array member, the registered string for a single point.
TEST(Registry, GroupNamesMatchPerPointNamesOnEveryCore) {
  for (const soc::CoreKind kind : soc::kAllCores) {
    SCOPED_TRACE(std::string(soc::core_name(kind)));
    const soc::Pipeline dut(soc::core_params(kind, soc::BugSet::none()));
    const Registry& reg = dut.registry();
    ASSERT_GT(reg.groups().size(), 1u);
    std::size_t next = 0;
    for (const PointGroup& group : reg.groups()) {
      ASSERT_EQ(group.base, next);  // consecutive, no gaps
      ASSERT_GT(group.count, 0u);
      next += group.count;
      const auto last = static_cast<PointId>(group.base + group.count - 1);
      if (group.array) {
        EXPECT_EQ(reg.name(group.base), group.prefix + "[0]");
        EXPECT_EQ(reg.name(last),
                  group.prefix + "[" + std::to_string(group.count - 1) + "]");
      } else {
        EXPECT_EQ(group.count, 1u);
        EXPECT_EQ(reg.name(group.base), group.prefix);
      }
    }
    EXPECT_EQ(next, reg.size());
    EXPECT_EQ(reg.size(), dut.coverage_universe());
    EXPECT_THROW((void)reg.name(static_cast<PointId>(reg.size())),
                 std::out_of_range);
    EXPECT_EQ(reg.name(0), "icache/hit_set[0]");
  }
}

TEST(Registry, FreezeBlocksRegistration) {
  Registry reg;
  reg.add("x");
  reg.freeze();
  EXPECT_TRUE(reg.frozen());
  EXPECT_DEATH(reg.add("y"), "");
}

// --- Map ------------------------------------------------------------------------

TEST(Map, SetTestCount) {
  Map m(100);
  EXPECT_TRUE(m.empty());
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(99);
  EXPECT_EQ(m.count(), 4u);
  EXPECT_TRUE(m.test(63));
  EXPECT_FALSE(m.test(62));
}

TEST(Map, OutOfUniverseSetIsIgnored) {
  Map m(10);
  m.set(10);
  m.set(9999);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_FALSE(m.test(10));
}

TEST(Map, MergeIsUnion) {
  Map a(70);
  Map b(70);
  a.set(1);
  b.set(1);
  b.set(65);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_TRUE(a.test(65));
}

TEST(Map, CountNewAndDifference) {
  Map a(130);
  Map b(130);
  a.set(3);
  a.set(100);
  a.set(128);
  b.set(100);
  EXPECT_EQ(a.count_new(b), 2u);
  const Map d = a.difference(b);
  EXPECT_TRUE(d.test(3));
  EXPECT_TRUE(d.test(128));
  EXPECT_FALSE(d.test(100));
  EXPECT_EQ(b.count_new(a), 0u);
  EXPECT_TRUE(b.subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
}

TEST(Map, AnyAndEmptyAgreeWithCount) {
  Map m(40'000);  // hundreds of words: empty() must not need a full popcount
  EXPECT_FALSE(m.any());
  EXPECT_TRUE(m.empty());

  // A bit in the first word short-circuits immediately...
  m.set(0);
  EXPECT_TRUE(m.any());
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.count(), 1u);

  // ...and a bit only in the very last word is still found.
  Map tail(40'000);
  tail.set(39'999);
  EXPECT_TRUE(tail.any());
  EXPECT_FALSE(tail.empty());

  tail.clear();
  EXPECT_FALSE(tail.any());
  EXPECT_TRUE(tail.empty());

  // Degenerate universes.
  Map zero(0);
  EXPECT_FALSE(zero.any());
  EXPECT_TRUE(zero.empty());
}

TEST(Map, AssignFromReusesStorageAndCopiesBits) {
  Map src(200);
  src.set(3);
  src.set(130);

  Map dst(200);
  dst.set(7);  // stale bit that must vanish
  dst.assign_from(src);
  EXPECT_TRUE(dst == src);
  EXPECT_FALSE(dst.test(7));
  EXPECT_TRUE(dst.test(130));

  // Universe changes follow the source.
  Map small(10);
  small.assign_from(src);
  EXPECT_TRUE(small == src);
  EXPECT_EQ(small.universe(), 200u);
}

TEST(Map, SwapExchangesContents) {
  Map a(100);
  Map b(30);
  a.set(64);
  b.set(5);
  a.swap(b);
  EXPECT_EQ(a.universe(), 30u);
  EXPECT_EQ(b.universe(), 100u);
  EXPECT_TRUE(a.test(5));
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(a.test(64));
}

TEST(Map, ClearResets) {
  Map m(20);
  m.set(5);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.universe(), 20u);
}

TEST(Map, EqualityIncludesUniverse) {
  Map a(10);
  Map b(10);
  Map c(11);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  a.set(1);
  EXPECT_FALSE(a == b);
}

TEST(Map, WordsAssignWordsRoundTrip) {
  Map m(100);
  m.set(0);
  m.set(63);
  m.set(99);
  const auto words = m.words();
  ASSERT_EQ(words.size(), 2u);
  Map rebuilt;
  rebuilt.assign_words(100, words);
  EXPECT_EQ(rebuilt, m);
  EXPECT_EQ(rebuilt.count(), 3u);
}

TEST(Map, AssignWordsRejectsWrongSizeAndTailBits) {
  const std::vector<std::uint64_t> one_word(1, 0);
  Map m;
  EXPECT_THROW(m.assign_words(100, one_word), std::invalid_argument);
  // Serialized-map invariant: bits at/above the universe must be zero —
  // a corrupt artifact fails loudly instead of inflating count().
  const std::vector<std::uint64_t> tail_set = {0, 1ULL << 63};
  EXPECT_THROW(m.assign_words(100, tail_set), std::invalid_argument);
  const std::vector<std::uint64_t> tail_ok = {~0ULL, (1ULL << 36) - 1};
  m.assign_words(100, tail_ok);
  EXPECT_EQ(m.count(), 100u);
}

class MapProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MapProperty, UnionCountsAreConsistent) {
  const std::size_t universe = GetParam();
  common::Xoshiro256StarStar rng(universe * 977 + 5);
  for (int round = 0; round < 20; ++round) {
    Map a(universe);
    Map b(universe);
    for (std::size_t i = 0; i < universe / 3 + 1; ++i) {
      a.set(static_cast<PointId>(rng.next_index(universe)));
      b.set(static_cast<PointId>(rng.next_index(universe)));
    }
    // |a ∪ b| = |b| + |a \ b|
    Map u = b;
    u.merge(a);
    EXPECT_EQ(u.count(), b.count() + a.count_new(b));
    // difference is disjoint from b
    EXPECT_EQ(a.difference(b).count_new(b), a.difference(b).count());
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, MapProperty,
                         ::testing::Values(1, 63, 64, 65, 1000, 4096, 23456));

// Bit-by-bit reference for |m \ other| (other treated as zero past its end).
std::size_t reference_count_new(const Map& m, const Map& other) {
  std::size_t n = 0;
  for (PointId id = 0; id < m.universe(); ++id) {
    n += m.test(id) && !other.test(id) ? 1 : 0;
  }
  return n;
}

// The scheduler's fused bookkeeping — count_new_pair for (covL, covG),
// absorb_counted into global and a merge into the arm gated on covL — must
// leave the same counts and maps as the separate count_new/absorb/merge
// passes it replaces.
class FusedRewardProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedRewardProperty, MatchesSeparatePasses) {
  const std::size_t universe = GetParam();
  common::Xoshiro256StarStar rng(universe * 131 + 7);
  const auto random_map = [&](std::size_t bits) {
    Map m(universe);
    for (std::size_t i = 0; universe > 0 && i < bits; ++i) {
      m.set(static_cast<PointId>(rng.next_index(universe)));
    }
    return m;
  };
  for (int round = 0; round < 40; ++round) {
    // Densities from empty to saturated, and the degenerate cases: an
    // empty test, a test identical to the arm, an arm equal to global.
    const std::size_t density =
        universe * static_cast<std::size_t>(round % 5) / 4;
    Map arm = random_map(density / 2);
    Map global_map = random_map(density);
    if (round % 3 == 0) {
      global_map.merge(arm);  // the scheduler's invariant: arm ⊆ global
    }
    Map test = random_map(density / 3 + 1);
    if (round % 7 == 1) {
      test.clear();
    } else if (round % 7 == 2) {
      test = arm;
    } else if (round % 7 == 3) {
      arm = global_map;
    }

    Accumulator fused_global(universe);
    fused_global.absorb(global_map);
    Map fused_arm = arm;
    const auto [cov_local, cov_global] = test.count_new_pair(arm, global_map);
    EXPECT_EQ(cov_local, reference_count_new(test, arm));
    EXPECT_EQ(cov_global, reference_count_new(test, global_map));
    EXPECT_EQ(cov_local, test.count_new(arm));
    EXPECT_EQ(cov_global, test.count_new(global_map));
    EXPECT_EQ(fused_global.absorb_counted(test, cov_global), cov_global);
    if (cov_local > 0) {
      fused_arm.merge(test);
    }

    Accumulator separate_global(universe);
    separate_global.absorb(global_map);
    Map separate_arm = arm;
    EXPECT_EQ(separate_global.absorb(test), cov_global);
    separate_arm.merge(test);
    EXPECT_EQ(fused_global.global(), separate_global.global());
    EXPECT_EQ(fused_arm, separate_arm);
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, FusedRewardProperty,
                         ::testing::Values(0, 1, 63, 64, 65, 130, 1000, 12403,
                                           16080));

TEST(Map, CountNewAcrossUniverseSizes) {
  // A shorter `other` counts as zero past its end, in both primitives.
  Map big(200);
  big.set(5);
  big.set(150);
  Map small(70);
  small.set(5);
  EXPECT_EQ(big.count_new(small), 1u);
  using Counts = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(big.count_new_pair(small, big), (Counts{1, 0}));
  EXPECT_EQ(small.count_new(big), 0u);
  EXPECT_EQ(small.count_new_pair(big, Map(0)), (Counts{0, 1}));
}

// --- Accumulator -----------------------------------------------------------------

TEST(Accumulator, AbsorbReturnsFreshCount) {
  Accumulator acc(100);
  Map t1(100);
  t1.set(1);
  t1.set(2);
  EXPECT_EQ(acc.absorb(t1), 2u);
  Map t2(100);
  t2.set(2);
  t2.set(3);
  EXPECT_EQ(acc.absorb(t2), 1u);
  EXPECT_EQ(acc.covered(), 3u);
}

TEST(Accumulator, FractionAndUniverse) {
  Accumulator acc(200);
  EXPECT_DOUBLE_EQ(acc.fraction(), 0.0);
  Map t(200);
  for (PointId i = 0; i < 50; ++i) {
    t.set(i);
  }
  acc.absorb(t);
  EXPECT_DOUBLE_EQ(acc.fraction(), 0.25);
  EXPECT_EQ(acc.universe(), 200u);
}

TEST(Accumulator, EmptyUniverseFractionIsZero) {
  Accumulator acc(0);
  EXPECT_DOUBLE_EQ(acc.fraction(), 0.0);
}

// --- Context -----------------------------------------------------------------------

TEST(Context, RegistrationThenRuntime) {
  Context ctx;
  const PointId a = ctx.registry().add("a");
  const PointId arr = ctx.registry().add_array("arr", 8);
  ctx.freeze();
  ctx.begin_test();
  ctx.hit(a);
  ctx.hit(arr, 5);
  EXPECT_EQ(ctx.test_map().count(), 2u);
  EXPECT_TRUE(ctx.test_map().test(arr + 5));
  ctx.begin_test();
  EXPECT_TRUE(ctx.test_map().empty());
}

// --- GammaWindowMonitor --------------------------------------------------------------

TEST(Monitor, DepletesAfterGammaZeroGains) {
  GammaWindowMonitor m(3);
  EXPECT_FALSE(m.record(0));
  EXPECT_FALSE(m.record(0));
  EXPECT_TRUE(m.record(0));  // third consecutive zero
  EXPECT_TRUE(m.depleted());
}

TEST(Monitor, GainResetsStreak) {
  GammaWindowMonitor m(3);
  m.record(0);
  m.record(0);
  EXPECT_FALSE(m.record(5));  // gain breaks the streak
  EXPECT_EQ(m.zero_streak(), 0u);
  m.record(0);
  m.record(0);
  EXPECT_TRUE(m.record(0));
}

TEST(Monitor, ResetClearsState) {
  GammaWindowMonitor m(2);
  m.record(0);
  m.record(0);
  EXPECT_TRUE(m.depleted());
  m.reset();
  EXPECT_FALSE(m.depleted());
  EXPECT_EQ(m.zero_streak(), 0u);
}

TEST(Monitor, GammaZeroDisablesDepletion) {
  GammaWindowMonitor m(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(m.record(0));
  }
  EXPECT_FALSE(m.depleted());
}

class MonitorGammaSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MonitorGammaSweep, DepletesExactlyAtGamma) {
  const std::size_t gamma = GetParam();
  GammaWindowMonitor m(gamma);
  for (std::size_t i = 0; i + 1 < gamma; ++i) {
    EXPECT_FALSE(m.record(0)) << "at " << i;
  }
  EXPECT_TRUE(m.record(0));
}

INSTANTIATE_TEST_SUITE_P(Gammas, MonitorGammaSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 50));

TEST_P(MonitorGammaSweep, GainAtBoundaryMinusOnePreventsDepletion) {
  // γ-1 zero-gain pulls followed by a gain must leave the arm alive: the
  // window is a *consecutive* streak, not a moving sum.
  const std::size_t gamma = GetParam();
  GammaWindowMonitor m(gamma);
  for (std::size_t i = 0; i + 1 < gamma; ++i) {
    ASSERT_FALSE(m.record(0));
  }
  EXPECT_FALSE(m.record(1));
  EXPECT_FALSE(m.depleted());
  EXPECT_EQ(m.zero_streak(), 0u);
  // The streak restarts from scratch: another γ-1 zeros still aren't enough.
  for (std::size_t i = 0; i + 1 < gamma; ++i) {
    EXPECT_FALSE(m.record(0)) << "post-gain pull " << i;
  }
  EXPECT_FALSE(m.depleted());
  EXPECT_TRUE(m.record(0));
  EXPECT_TRUE(m.depleted());
}

TEST(Monitor, DepletionEventsCountCrossingsOnce) {
  GammaWindowMonitor m(2);
  EXPECT_EQ(m.depletion_events(), 0u);
  m.record(0);
  m.record(0);  // streak crosses gamma: one event
  EXPECT_EQ(m.depletion_events(), 1u);
  EXPECT_TRUE(m.record(0));  // still depleted, but not a fresh event
  EXPECT_EQ(m.depletion_events(), 1u);
  m.reset();
  EXPECT_FALSE(m.depleted());
  // depletion_events survives reset() (lifetime statistic)...
  EXPECT_EQ(m.depletion_events(), 1u);
  m.record(0);
  m.record(0);
  EXPECT_EQ(m.depletion_events(), 2u);
}

TEST(Monitor, ObservationsTrackPullsAndClearOnReset) {
  GammaWindowMonitor m(3);
  m.record(0);
  m.record(7);
  m.record(0);
  EXPECT_EQ(m.observations(), 3u);
  m.reset();
  EXPECT_EQ(m.observations(), 0u);
  GammaWindowMonitor disabled(0);
  disabled.record(0);
  EXPECT_EQ(disabled.observations(), 1u);  // counted even when detection is off
}

}  // namespace
}  // namespace mabfuzz::coverage
