#pragma once
// The scheduling-policy interface: a fuzzer is "something that executes one
// test per step against the shared backend". Every policy implements it —
// TheHuzz (static FIFO), MABFuzz (MAB seed selection), the corpus-reuse
// fuzzer, the random-regression control — so the experiment harness drives
// any of them interchangeably (by registry name; fuzz/registry.hpp), and
// every policy is built from the one PolicyConfig below.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coverage/map.hpp"
#include "fuzz/backend.hpp"
#include "mab/bandit.hpp"

namespace mabfuzz::core {
class SeedLengthPolicy;  // core/adaptive.hpp; carried opaquely here
}  // namespace mabfuzz::core

namespace mabfuzz::fuzz {

class Corpus;  // fuzz/corpus.hpp; carried opaquely here

/// The scheduling-policy configuration (paper Sec. III / IV-A defaults):
/// the single home of every scheduling knob. Each policy reads the fields
/// relevant to it: the bandit-backed schedulers consume `bandit` plus the
/// MABFuzz shaping knobs; TheHuzz consumes the shared mutant burst and the
/// corpus; the reuse fuzzer consumes `gamma` and the corpus keys.
struct PolicyConfig {
  /// Bandit parameters — the single home of num_arms / epsilon / eta.
  mab::BanditConfig bandit{};

  /// MABFuzz scheduler shaping (paper Sec. IV-A).
  double alpha = 0.25;                   // reward mix R = α|covL| + (1-α)|covG|
  std::size_t gamma = 3;                 // reset threshold; 0 disables resets
  /// Mutant burst per interesting test, shared with the TheHuzz baseline
  /// (the paper's experimental control).
  unsigned mutants_per_interesting = 5;
  std::size_t arm_pool_cap = 1024;

  /// Sec. V extensions. The declarative flags are materialised by
  /// harness::Campaign (which owns the RNG stream derivation); a directly
  /// provided length_policy takes precedence over adaptive_length. A set
  /// length_policy picks the instruction count of every fresh seed
  /// (initial arms and resets) and is rewarded by the seed's globally-new
  /// coverage.
  bool adaptive_operators = false;       // MAB mutation-operator selection
  bool adaptive_length = false;          // MAB seed-length selection
  std::vector<unsigned> length_choices{12, 20, 28, 40};
  std::shared_ptr<core::SeedLengthPolicy> length_policy;

  /// Cross-campaign corpus reuse (fuzz/corpus.hpp). `corpus` is the store
  /// campaigns share tests through — materialised by harness::Campaign
  /// from its corpus-in/corpus-out keys; when null, the "reuse" fuzzer
  /// creates a campaign-private store of `corpus_cap` entries. Every
  /// corpus-feeding policy (thehuzz, the bandit schedulers, reuse) offers
  /// its executed tests to the store when one is present; the corpus's
  /// novelty gate decides admission. `reuse_bandit` names the
  /// mab::BanditRegistry policy the reuse fuzzer selects seeds with
  /// (Thompson sampling by default, per ReFuzz).
  std::string reuse_bandit = "thompson";
  std::size_t corpus_cap = 256;
  std::shared_ptr<Corpus> corpus;
};

/// What one scheduling step produced (one executed test).
struct StepResult {
  std::uint64_t test_index = 0;       // 1-based count of executed tests
  std::size_t new_global_points = 0;  // globally new coverage this test
  bool mismatch = false;
  soc::FiringLog firings;
  /// The bandit arm that scheduled this test. Engaged only for policies
  /// that select arms (MABFuzz schedulers); policies without arms
  /// (TheHuzz, random regression) leave it empty — arm 0 is a real arm,
  /// not a sentinel.
  std::optional<std::size_t> arm;

  [[nodiscard]] bool has_arm() const noexcept { return arm.has_value(); }
};

class Fuzzer {
 public:
  virtual ~Fuzzer() = default;

  /// Executes exactly one test and updates internal state.
  virtual StepResult step() = 0;

  /// Accumulated global coverage so far.
  [[nodiscard]] virtual const coverage::Accumulator& accumulated() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Appends a deterministic fingerprint of the policy's mutable state
  /// (bandit statistics, RNG stream positions, reset counters) to `out` —
  /// the divergence witness harness/checkpoint.hpp compares after a
  /// resume replay. Policies whose state is fully reconstructed by
  /// replay anyway may keep the empty default; the bandit-backed
  /// schedulers serialize their mab::Bandit state.
  virtual void append_state(std::string& out) const { (void)out; }
};

}  // namespace mabfuzz::fuzz
