#pragma once
// String-keyed bandit-policy registry: the single construction path for
// every MAB algorithm in the system. Built-ins (epsilon-greedy, ucb, exp3,
// thompson) self-register at static-initialisation time and are already
// wired up as fuzzers; a custom bandit registered here additionally needs
// one core::register_mab_policy(name) call to become selectable as a
// fuzzer (harness::CampaignConfig::fuzzer, mabfuzz_cli --fuzzer, the bench
// sweeps) — see examples/custom_bandit.cpp.
//
// Lookup misses throw std::invalid_argument whose message lists every
// registered name, so a typo on the command line is self-explaining.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/registry.hpp"
#include "mab/bandit.hpp"

namespace mabfuzz::mab {

class BanditRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Bandit>(const BanditConfig&)>;

  /// The process-wide registry (Meyers singleton: safe to use from static
  /// initialisers in other translation units).
  [[nodiscard]] static BanditRegistry& instance();

  /// Registers `factory` under `name`.
  /// Throws std::invalid_argument if the name is already taken.
  void add(std::string name, Factory factory) {
    registry_.add(std::move(name), std::move(factory));
  }

  /// Builds the bandit registered under `name`.
  /// Throws std::invalid_argument listing all known names on a miss.
  [[nodiscard]] std::unique_ptr<Bandit> create(std::string_view name,
                                               const BanditConfig& config) const {
    return registry_.lookup(name)(config);
  }

  [[nodiscard]] bool contains(std::string_view name) const {
    return registry_.contains(name);
  }

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    return registry_.names();
  }

  /// Removes a registration (test hygiene). Returns false if absent.
  bool remove(std::string_view name) { return registry_.remove(name); }

 private:
  BanditRegistry() : registry_("bandit policy", "bandit policies") {}

  common::NamedRegistry<Factory> registry_;
};

/// File-scope self-registration helper:
///   const mab::BanditRegistration kMine{"mine", [](const BanditConfig& c) {
///     return std::make_unique<MyBandit>(c.num_arms, ...);
///   }};
struct BanditRegistration {
  BanditRegistration(std::string name, BanditRegistry::Factory factory) {
    BanditRegistry::instance().add(std::move(name), std::move(factory));
  }
};

/// Convenience: build a bandit by policy name through the registry.
/// The bandit's exploration stream is derived from (config.rng_seed, the
/// policy name), so the same config replays bit-identically.
[[nodiscard]] std::unique_ptr<Bandit> make_bandit(std::string_view name,
                                                  const BanditConfig& config);

}  // namespace mabfuzz::mab
