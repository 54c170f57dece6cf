#include "mab/bandit.hpp"

#include <stdexcept>

namespace mabfuzz::mab {

Bandit::Bandit(std::size_t num_arms) : num_arms_(num_arms) {
  if (num_arms_ == 0) {
    throw std::invalid_argument("a bandit needs at least one arm");
  }
}

}  // namespace mabfuzz::mab
