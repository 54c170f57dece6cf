#include "coverage/summary.hpp"

#include <algorithm>
#include <map>
#include <string_view>

namespace mabfuzz::coverage {

namespace {

// A key is a point name cut at its first '[' (stem) or '/' (unit); these
// return the cut position.
std::size_t stem_length(std::string_view name) {
  return std::min(name.find('['), name.size());
}

std::size_t unit_length(std::string_view name) {
  return std::min(name.find('/'), name.size());
}

std::size_t covered_in(const Map& covered, const PointGroup& group) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < group.count; ++i) {
    n += covered.test(group.base + static_cast<PointId>(i)) ? 1 : 0;
  }
  return n;
}

std::vector<GroupSummary> summarize_by(
    const Registry& registry, const Map& covered,
    std::size_t (*key_length)(std::string_view)) {
  std::map<std::string, GroupSummary> groups;
  for (const PointGroup& group : registry.groups()) {
    // Every point of a group shares its key when the cut falls inside the
    // prefix or on the '[' opening the index. Otherwise (an array whose
    // prefix lacks the '/' a unit key cuts at) the key holds the index, so
    // each point is keyed by its own name.
    const std::string first = group.point_name(0);
    const std::size_t cut = key_length(first);
    if (!group.array || cut <= group.prefix.size()) {
      GroupSummary& g = groups[first.substr(0, cut)];
      g.total += group.count;
      g.covered += covered_in(covered, group);
      continue;
    }
    for (std::size_t i = 0; i < group.count; ++i) {
      const std::string name = group.point_name(i);
      GroupSummary& g = groups[name.substr(0, key_length(name))];
      ++g.total;
      g.covered += covered.test(group.base + static_cast<PointId>(i)) ? 1 : 0;
    }
  }
  std::vector<GroupSummary> out;
  out.reserve(groups.size());
  for (auto& [name, group] : groups) {
    group.group = name;
    out.push_back(std::move(group));
  }
  std::sort(out.begin(), out.end(), [](const GroupSummary& a, const GroupSummary& b) {
    const std::size_t ua = a.total - a.covered;
    const std::size_t ub = b.total - b.covered;
    return ua != ub ? ua > ub : a.group < b.group;
  });
  return out;
}

}  // namespace

std::vector<GroupSummary> summarize_groups(const Registry& registry,
                                           const Map& covered) {
  return summarize_by(registry, covered, stem_length);
}

std::vector<GroupSummary> summarize_units(const Registry& registry,
                                          const Map& covered) {
  return summarize_by(registry, covered, unit_length);
}

}  // namespace mabfuzz::coverage
