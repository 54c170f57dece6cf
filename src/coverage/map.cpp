#include "coverage/map.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "common/bitops.hpp"

namespace mabfuzz::coverage {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t points) {
  return (points + kWordBits - 1) / kWordBits;
}
}  // namespace

Map::Map(std::size_t num_points)
    : num_points_(num_points), words_(words_for(num_points), 0) {}

void Map::resize(std::size_t num_points) {
  num_points_ = num_points;
  words_.assign(words_for(num_points), 0);
}

std::size_t Map::count() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

void Map::merge(const Map& other) noexcept {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    words_[i] |= other.words_[i];
  }
}

// The counting loops below call popcount only on a nonzero `mine & ~theirs`:
// a test's map is sparse (about 70 of 250 words nonzero on boom), and after
// warm-up almost every such word is zero. Without a -mpopcnt target,
// std::popcount is a library call per word. Testing `mine` for zero first
// would add a branch that mispredicts on the mixed zero/nonzero words.
std::size_t Map::count_new(const Map& other) const noexcept {
  const std::uint64_t* mine = words_.data();
  const std::uint64_t* theirs = other.words_.data();
  const std::size_t n = words_.size();
  const std::size_t shared = std::min(n, other.words_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < shared; ++i) {
    if (const std::uint64_t fresh = mine[i] & ~theirs[i]; fresh != 0) {
      total += static_cast<std::size_t>(std::popcount(fresh));
    }
  }
  for (std::size_t i = shared; i < n; ++i) {  // `other` is zero past its end
    if (mine[i] != 0) {
      total += static_cast<std::size_t>(std::popcount(mine[i]));
    }
  }
  return total;
}

std::pair<std::size_t, std::size_t> Map::count_new_pair(
    const Map& a, const Map& b) const noexcept {
  const std::size_t n = words_.size();
  if (a.words_.size() < n || b.words_.size() < n) {
    return {count_new(a), count_new(b)};  // mismatched universes
  }
  const std::uint64_t* mine = words_.data();
  const std::uint64_t* wa = a.words_.data();
  const std::uint64_t* wb = b.words_.data();
  std::size_t new_a = 0;
  std::size_t new_b = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (const std::uint64_t fresh = mine[i] & ~wa[i]; fresh != 0) {
      new_a += static_cast<std::size_t>(std::popcount(fresh));
    }
    if (const std::uint64_t fresh = mine[i] & ~wb[i]; fresh != 0) {
      new_b += static_cast<std::size_t>(std::popcount(fresh));
    }
  }
  return {new_a, new_b};
}

Map Map::difference(const Map& other) const {
  Map out(num_points_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t theirs = i < other.words_.size() ? other.words_[i] : 0;
    out.words_[i] = words_[i] & ~theirs;
  }
  return out;
}

bool Map::subset_of(const Map& other) const noexcept { return count_new(other) == 0; }

void Map::clear() noexcept {
  for (std::uint64_t& w : words_) {
    w = 0;
  }
}

void Map::assign_words(std::size_t num_points,
                       std::span<const std::uint64_t> words) {
  if (words.size() != words_for(num_points)) {
    throw std::invalid_argument(
        "coverage::Map::assign_words: " + std::to_string(words.size()) +
        " words cannot back a universe of " + std::to_string(num_points) +
        " points (expected " + std::to_string(words_for(num_points)) + ")");
  }
  // Enforce the documented invariant that bits at/above the universe are
  // zero — a corrupt serialized map fails loudly instead of silently
  // inflating count() and breaking equality with legitimately built maps.
  if (const std::size_t tail_bits = num_points % kWordBits;
      tail_bits != 0 && !words.empty() &&
      (words.back() >> tail_bits) != 0) {
    throw std::invalid_argument(
        "coverage::Map::assign_words: bits set beyond the " +
        std::to_string(num_points) + "-point universe");
  }
  num_points_ = num_points;
  words_.assign(words.begin(), words.end());
}

std::size_t Accumulator::absorb(const Map& test_map) {
  return absorb_counted(test_map, test_map.count_new(global_));
}

std::size_t Accumulator::absorb_counted(const Map& test_map,
                                        std::size_t fresh) {
  if (fresh > 0) {
    global_.merge(test_map);
  }
  return fresh;
}

double Accumulator::fraction() const noexcept {
  const std::size_t u = universe();
  return u == 0 ? 0.0 : static_cast<double>(covered()) / static_cast<double>(u);
}

}  // namespace mabfuzz::coverage
