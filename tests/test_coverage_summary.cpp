// Tests for the coverage group-summary reporting.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "coverage/summary.hpp"
#include "soc/cores.hpp"

namespace mabfuzz::coverage {
namespace {

TEST(Summary, GroupsByStem) {
  Registry reg;
  reg.add_array("cache/hit", 4);
  reg.add("cache/flush");
  reg.add_array("btb/alloc", 2);
  Map covered(reg.size());
  covered.set(0);
  covered.set(1);
  covered.set(4);  // cache/flush

  const auto groups = summarize_groups(reg, covered);
  ASSERT_EQ(groups.size(), 3u);
  // Sorted by uncovered mass: cache/hit (2 uncovered), btb/alloc (2), flush (0).
  EXPECT_EQ(groups.back().group, "cache/flush");
  EXPECT_EQ(groups.back().covered, 1u);
  for (const auto& g : groups) {
    if (g.group == "cache/hit") {
      EXPECT_EQ(g.total, 4u);
      EXPECT_EQ(g.covered, 2u);
      EXPECT_DOUBLE_EQ(g.fraction(), 0.5);
    }
  }
}

TEST(Summary, UnitsCollapseAtFirstSlash) {
  Registry reg;
  reg.add_array("dcache/read_hit_set", 2);
  reg.add_array("dcache/write_hit_set", 2);
  reg.add("pipeline/wild_jump");
  Map covered(reg.size());

  const auto units = summarize_units(reg, covered);
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].group, "dcache");
  EXPECT_EQ(units[0].total, 4u);
}

TEST(Summary, TotalsMatchUniverseOnRealCore) {
  const soc::Pipeline dut(soc::core_params(soc::CoreKind::kRocket,
                                           soc::BugSet::none()));
  Map covered(dut.coverage_universe());
  std::size_t total = 0;
  for (const auto& g : summarize_groups(dut.registry(), covered)) {
    total += g.total;
    EXPECT_EQ(g.covered, 0u);
  }
  EXPECT_EQ(total, dut.coverage_universe());
}

// Per-point reference: one name string per point, cut at the first '['
// (stem) or '/' (unit) — the summary's definition, computed the slow way.
std::vector<GroupSummary> reference_summary(const Registry& registry,
                                            const Map& covered, char cut) {
  std::map<std::string, GroupSummary> groups;
  for (PointId id = 0; id < registry.size(); ++id) {
    const std::string name = registry.name(id);
    GroupSummary& g = groups[name.substr(0, name.find(cut))];
    ++g.total;
    g.covered += covered.test(id) ? 1 : 0;
  }
  std::vector<GroupSummary> out;
  for (auto& [name, group] : groups) {
    group.group = name;
    out.push_back(group);
  }
  std::sort(out.begin(), out.end(),
            [](const GroupSummary& a, const GroupSummary& b) {
              const std::size_t ua = a.total - a.covered;
              const std::size_t ub = b.total - b.covered;
              return ua != ub ? ua > ub : a.group < b.group;
            });
  return out;
}

void expect_same_rows(const std::vector<GroupSummary>& got,
                      const std::vector<GroupSummary>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].group, want[i].group) << "row " << i;
    EXPECT_EQ(got[i].total, want[i].total) << got[i].group;
    EXPECT_EQ(got[i].covered, want[i].covered) << got[i].group;
  }
}

TEST(Summary, MatchesPerPointReferenceOnEveryCore) {
  for (const soc::CoreKind kind : soc::kAllCores) {
    SCOPED_TRACE(std::string(soc::core_name(kind)));
    const soc::Pipeline dut(soc::core_params(kind, soc::BugSet::none()));
    const Registry& reg = dut.registry();
    common::Xoshiro256StarStar rng(static_cast<std::uint64_t>(kind) + 11);
    Map covered(reg.size());
    for (std::size_t i = 0; i < reg.size() / 2; ++i) {
      covered.set(static_cast<PointId>(rng.next_index(reg.size())));
    }
    expect_same_rows(summarize_groups(reg, covered),
                     reference_summary(reg, covered, '['));
    expect_same_rows(summarize_units(reg, covered),
                     reference_summary(reg, covered, '/'));
  }
}

TEST(Summary, KeysThatCutInsideOrAfterThePrefix) {
  Registry reg;
  reg.add("x[3]");                 // a single point named like an array member
  reg.add_array("flat", 3);        // no '/': each member is its own unit
  reg.add_array("odd[lane]/q", 2);  // '[' inside the prefix
  reg.add_array("u/v", 2);
  Map covered(reg.size());
  covered.set(0);
  covered.set(2);
  covered.set(5);
  const auto groups = summarize_groups(reg, covered);
  expect_same_rows(groups, reference_summary(reg, covered, '['));
  expect_same_rows(summarize_units(reg, covered),
                   reference_summary(reg, covered, '/'));
  const auto x =
      std::find_if(groups.begin(), groups.end(),
                   [](const GroupSummary& g) { return g.group == "x"; });
  ASSERT_NE(x, groups.end());
  EXPECT_EQ(x->total, 1u);
  EXPECT_EQ(x->covered, 1u);
}

TEST(Summary, EmptyRegistry) {
  Registry reg;
  Map covered(0);
  EXPECT_TRUE(summarize_groups(reg, covered).empty());
  EXPECT_TRUE(summarize_units(reg, covered).empty());
}

}  // namespace
}  // namespace mabfuzz::coverage
