#include "coverage/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace mabfuzz::coverage {

std::string PointGroup::point_name(std::size_t index) const {
  if (!array) {
    return prefix;
  }
  return prefix + "[" + std::to_string(index) + "]";
}

PointId Registry::add(std::string name) {
  if (frozen_) {
    std::abort();  // registration after freeze() is a programming error
  }
  const auto id = static_cast<PointId>(size_);
  groups_.push_back(PointGroup{std::move(name), id, 1, false});
  ++size_;
  return id;
}

PointId Registry::add_array(std::string_view prefix, std::size_t count) {
  if (frozen_) {
    std::abort();
  }
  const auto base = static_cast<PointId>(size_);
  if (count > 0) {
    groups_.push_back(PointGroup{std::string(prefix), base, count, true});
    size_ += count;
  }
  return base;
}

std::string Registry::name(PointId id) const {
  if (id >= size_) {
    throw std::out_of_range("coverage::Registry::name: id " +
                            std::to_string(id) + " is outside the " +
                            std::to_string(size_) + "-point registry");
  }
  // The last group whose base is <= id holds it (groups are in id order).
  const auto after =
      std::upper_bound(groups_.begin(), groups_.end(), id,
                       [](PointId value, const PointGroup& group) {
                         return value < group.base;
                       });
  const PointGroup& group = *(after - 1);
  return group.point_name(id - group.base);
}

}  // namespace mabfuzz::coverage
