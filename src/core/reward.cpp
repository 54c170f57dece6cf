#include "core/reward.hpp"

#include <tuple>

namespace mabfuzz::core {

RewardBreakdown compute_reward(const RewardConfig& config,
                               const coverage::Map& test_coverage,
                               const coverage::Map& arm_coverage,
                               const coverage::Map& global_coverage) {
  RewardBreakdown out;
  std::tie(out.cov_local, out.cov_global) =
      test_coverage.count_new_pair(arm_coverage, global_coverage);
  out.reward = config.alpha * static_cast<double>(out.cov_local) +
               (1.0 - config.alpha) * static_cast<double>(out.cov_global);
  return out;
}

}  // namespace mabfuzz::core
