#pragma once
// Coverage-point registry. Substrate components register their branch
// coverage points at construction time (one point per control-decision
// edge, replicated structures register replicated points), producing the
// dense id space the coverage maps are sized to — the C++ analogue of the
// branch-coverage instrumentation a VCS/Verilator flow compiles into RTL.
//
// The registry stores one record per registration call, not one name per
// point: a core registers 12–16k points in 52–58 groups, and point names
// are only read by reporting tools, which format them on demand.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mabfuzz::coverage {

/// Dense id of one coverage point.
using PointId = std::uint32_t;

/// One registration: the consecutive ids [base, base + count).
struct PointGroup {
  std::string prefix;
  PointId base = 0;
  std::size_t count = 0;
  bool array = false;  // add_array: points are named "<prefix>[i]"

  /// Name of the group's `index`-th point (index < count).
  [[nodiscard]] std::string point_name(std::size_t index) const;
};

class Registry {
 public:
  /// Registers a single named point; returns its id.
  PointId add(std::string name);

  /// Registers `count` points "<prefix>[0]".."<prefix>[count-1]";
  /// returns the id of element 0 (ids are consecutive).
  PointId add_array(std::string_view prefix, std::size_t count);

  /// Number of registered points (|C| in the paper's EXP3 normalisation).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The point's name, formatted on demand; throws std::out_of_range when
  /// `id` >= size().
  [[nodiscard]] std::string name(PointId id) const;

  /// The registrations in id order (empty arrays leave no record).
  [[nodiscard]] std::span<const PointGroup> groups() const noexcept {
    return groups_;
  }

  /// Freezes the registry; further registration aborts. Called once the
  /// core finishes construction so the map size is stable.
  void freeze() noexcept { frozen_ = true; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

 private:
  std::vector<PointGroup> groups_;
  std::size_t size_ = 0;
  bool frozen_ = false;
};

}  // namespace mabfuzz::coverage
