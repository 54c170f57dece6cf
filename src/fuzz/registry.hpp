#pragma once
// String-keyed fuzzer (scheduling-policy) registry. A "fuzzer" here is a
// complete scheduling policy over a shared Backend: the TheHuzz FIFO
// baseline, the random-regression control, and one entry per built-in
// bandit policy (wired up by core/register.cpp, which couples a
// mab::Bandit to the MabScheduler).
//
// The registry is the experiment-construction seam the paper's methodology
// needs: the policy is the *only* variable, selected by name, with every
// other knob living in one PolicyConfig (fuzz/fuzzer.hpp). Unknown names
// throw std::invalid_argument listing the registered names.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/registry.hpp"
#include "fuzz/backend.hpp"
#include "fuzz/fuzzer.hpp"

namespace mabfuzz::fuzz {

class FuzzerRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Fuzzer>(Backend&, const PolicyConfig&)>;

  [[nodiscard]] static FuzzerRegistry& instance();

  /// Registers `factory` under `name`; throws std::invalid_argument on a
  /// duplicate.
  void add(std::string name, Factory factory) {
    registry_.add(std::move(name), std::move(factory));
  }

  /// Builds the policy registered under `name` on top of `backend`.
  /// Throws std::invalid_argument listing all known names on a miss.
  [[nodiscard]] std::unique_ptr<Fuzzer> create(std::string_view name,
                                               Backend& backend,
                                               const PolicyConfig& config) const {
    return registry_.lookup(name)(backend, config);
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
  FuzzerRegistry() : registry_("fuzzer policy", "fuzzer policies") {}

  common::NamedRegistry<Factory> registry_;
};

/// File-scope self-registration helper, mirroring mab::BanditRegistration.
struct FuzzerRegistration {
  FuzzerRegistration(std::string name, FuzzerRegistry::Factory factory) {
    FuzzerRegistry::instance().add(std::move(name), std::move(factory));
  }
};

}  // namespace mabfuzz::fuzz
