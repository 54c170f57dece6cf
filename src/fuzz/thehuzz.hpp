#pragma once
// TheHuzz baseline fuzzer: the static scheduling policy MABFuzz improves
// on. One global FIFO working queue fed from a test *database*:
// interesting tests (those covering new points) enter the database and
// spawn a fixed burst of mutants; when the queue runs dry, TheHuzz cycles
// its database first-in-first-out and mutates the next entry — "selects
// the tests from its database in a static first-in-first-out method and
// does not prioritize selecting the tests with more potential first"
// (paper Sec. I). Fresh random seeds are generated only when the database
// has nothing to offer.

#include <deque>

#include "fuzz/backend.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/pool.hpp"

namespace mabfuzz::fuzz {

class TheHuzz final : public Fuzzer {
 public:
  /// Reads `config.mutants_per_interesting` (the burst shared with the
  /// MABFuzz schedulers) and `config.corpus`: when a store is present,
  /// every executed test is offered to it; null is the original TheHuzz
  /// behaviour.
  TheHuzz(Backend& backend, const PolicyConfig& config);

  StepResult step() override;
  [[nodiscard]] const coverage::Accumulator& accumulated() const override {
    return accumulated_;
  }
  [[nodiscard]] std::string_view name() const override { return "TheHuzz"; }

  [[nodiscard]] const TestPool& pool() const noexcept { return pool_; }
  [[nodiscard]] std::size_t database_size() const noexcept {
    return database_.size();
  }

 private:
  void refill_from_database();

  Backend& backend_;
  PolicyConfig config_;
  TestPool pool_;
  std::deque<TestCase> database_;  // interesting tests, insertion order
  std::size_t db_cursor_ = 0;      // static FIFO replay position
  coverage::Accumulator accumulated_;
  TestOutcome outcome_;  // reused across steps (backend scratch swap)
  std::uint64_t steps_ = 0;
};

}  // namespace mabfuzz::fuzz
