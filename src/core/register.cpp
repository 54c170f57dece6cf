#include "core/register.hpp"

#include <memory>
#include <utility>

#include "core/scheduler.hpp"
#include "fuzz/registry.hpp"
#include "mab/registry.hpp"

namespace mabfuzz::core {

void register_mab_policy(const std::string& name) {
  fuzz::FuzzerRegistry::instance().add(
      name, [name](fuzz::Backend& backend, const fuzz::PolicyConfig& policy)
                -> std::unique_ptr<fuzz::Fuzzer> {
        auto bandit = mab::BanditRegistry::instance().create(name, policy.bandit);
        return std::make_unique<MabScheduler>(backend, std::move(bandit),
                                              policy);
      });
}

namespace {

const bool kBuiltinsRegistered = [] {
  for (const char* name : {"epsilon-greedy", "ucb", "exp3", "thompson"}) {
    register_mab_policy(name);
  }
  return true;
}();

}  // namespace

void ensure_builtin_policies_registered() {
  (void)kBuiltinsRegistered;  // referencing the flag pins the static init
}

}  // namespace mabfuzz::core
