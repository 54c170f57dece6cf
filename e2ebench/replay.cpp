// The traced run's instruments: span bookkeeping, the campaign-side work
// counters, and the layer replay that times each layer's public call.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/reward.hpp"
#include "core/scheduler.hpp"
#include "coverage/map.hpp"
#include "e2e.hpp"
#include "fuzz/backend.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/reuse_fuzzer.hpp"
#include "golden/iss.hpp"
#include "harness/checkpoint.hpp"
#include "isa/decoded_program.hpp"
#include "mab/registry.hpp"
#include "soc/cores.hpp"
#include "soc/pipeline.hpp"

namespace e2ebench {

using namespace mabfuzz;

std::uint64_t cell_seed(std::uint64_t workload_seed, std::uint64_t index) {
  return common::derive_seed(workload_seed, index, "e2ebench-cell");
}

std::string_view span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kSetup: return "harness.campaign_ctor";
    case SpanName::kStep: return "harness.campaign_step";
    case SpanName::kReplayTest: return "replay.test";
    case SpanName::kMakeSeed: return "fuzz.make_seed";
    case SpanName::kMakeMutant: return "mutation.make_mutant";
    case SpanName::kDecodeBuild: return "isa.decode_build";
    case SpanName::kPipeline: return "soc.pipeline_run";
    case SpanName::kIss: return "golden.iss_run";
    case SpanName::kCompare: return "fuzz.compare";
    case SpanName::kReward: return "core.compute_reward";
    case SpanName::kAbsorb: return "coverage.absorb";
    case SpanName::kSelect: return "mab.select";
    case SpanName::kUpdate: return "mab.update";
    case SpanName::kCorpusOffer: return "fuzz.corpus_offer";
    case SpanName::kCheckpointSave: return "harness.checkpoint_save";
    case SpanName::kCheckpointLoad: return "harness.checkpoint_load";
    case SpanName::kResume: return "harness.resume_campaign";
    case SpanName::kCount: break;
  }
  return "?";
}

std::map<SpanName, Tracer::Totals> Tracer::totals(std::size_t from,
                                                  std::size_t to) const {
  std::vector<double> child_ns(to - from, 0.0);
  for (std::size_t i = from; i < to; ++i) {
    const Span& span = spans_[i];
    const auto parent = static_cast<std::size_t>(span.parent);
    if (span.parent >= 0 && parent >= from) {
      child_ns[parent - from] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<SpanName, Totals> out;
  for (std::size_t i = from; i < to; ++i) {
    const Span& span = spans_[i];
    const auto duration = static_cast<double>(span.end_ns - span.start_ns);
    Totals& t = out[span.name];
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i - from];
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    throw std::runtime_error("cannot write span file '" + path + "'");
  }
  os << "id,parent,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << ',' << s.parent << ',' << span_name(s.name) << ',' << s.start_ns
       << ',' << s.end_ns << '\n';
  }
}

void Ledger::record(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) {
    return;
  }
  ++failed_;
  if (failures_.size() < 8) {
    failures_.push_back(failure);
  }
}

void WorkCounters::add(const WorkCounters& o) {
  tests += o.tests;
  dut_cycles += o.dut_cycles;
  commits += o.commits;
  traps += o.traps;
  golden_instret += o.golden_instret;
  firings += o.firings;
  mismatches += o.mismatches;
  new_points += o.new_points;
  decode_lookups += o.decode_lookups;
  decode_misses += o.decode_misses;
  arm_resets += o.arm_resets;
  coverage_hits += o.coverage_hits;
  corpus_entries += o.corpus_entries;
}

namespace {

[[nodiscard]] std::uint64_t count_traps(const isa::ArchResult& arch) {
  return static_cast<std::uint64_t>(
      std::count_if(arch.commits.begin(), arch.commits.end(),
                    [](const isa::CommitRecord& r) { return r.trapped; }));
}

/// Arm resets so far of the campaign's policy; 0 for policies without arms.
[[nodiscard]] std::uint64_t arm_resets(harness::Campaign& campaign) {
  if (const auto* mab = dynamic_cast<const core::MabScheduler*>(&campaign.fuzzer())) {
    return mab->total_resets();
  }
  if (const auto* reuse = dynamic_cast<const fuzz::ReuseFuzzer*>(&campaign.fuzzer())) {
    return reuse->total_resets();
  }
  return 0;
}

}  // namespace

CounterObserver::CounterObserver(harness::Campaign& campaign) : campaign_(campaign) {
  campaign_.add_observer(*this);
}

void CounterObserver::on_step(const harness::Campaign&, const fuzz::StepResult& step) {
  const fuzz::ExecutionContext& cx = campaign_.backend().execution_context();
  ++c_.tests;
  c_.dut_cycles += cx.dut_out.cycles;
  c_.commits += cx.dut_out.arch.commits.size();
  c_.traps += count_traps(cx.dut_out.arch);
  c_.golden_instret += cx.golden_out.instret;
  c_.firings += step.firings.size();
  c_.mismatches += step.mismatch ? 1 : 0;
  c_.new_points += step.new_global_points;
}

void CounterObserver::finish() {
  const isa::DecodedProgram& decoded = campaign_.backend().execution_context().decoded;
  c_.decode_lookups += decoded.lookups();
  c_.decode_misses += decoded.misses();
  c_.arm_resets += arm_resets(campaign_);
  if (const auto* reuse = dynamic_cast<const fuzz::ReuseFuzzer*>(&campaign_.fuzzer())) {
    c_.corpus_entries += reuse->corpus().size();
  } else if (campaign_.corpus() != nullptr) {
    c_.corpus_entries += campaign_.corpus()->size();
  }
}

namespace {

/// RAII span: begin at construction, end at destruction.
class Scoped {
 public:
  Scoped(Tracer& tracer, SpanName name, std::int32_t parent)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// The bandit the campaign's policy selects arms with, or null.
[[nodiscard]] std::unique_ptr<mab::Bandit> policy_bandit(
    const harness::CampaignConfig& config) {
  std::string name;
  if (config.fuzzer == "reuse") {
    name = config.policy.reuse_bandit;
  } else if (mab::BanditRegistry::instance().contains(config.fuzzer)) {
    name = config.fuzzer;
  } else {
    return nullptr;
  }
  mab::BanditConfig bandit = config.policy.bandit;
  bandit.rng_seed = common::derive_seed(config.rng_seed, config.run_index, "bandit");
  return mab::make_bandit(name, bandit);
}

// A fresh seed every kLineage tests; the others mutate the newest test
// that covered something new, as the schedulers' lineages do.
constexpr std::uint64_t kLineage = 16;

}  // namespace

WorkCounters replay_layers(const harness::CampaignConfig& config,
                           std::uint64_t tests, Tracer& tracer) {
  fuzz::BackendConfig backend_config;
  backend_config.core = config.core;
  backend_config.bugs = config.bugs;
  backend_config.rng_seed = config.rng_seed;
  backend_config.rng_run = config.run_index;
  fuzz::Backend generator(backend_config);

  soc::Pipeline dut(soc::core_params(config.core, config.bugs));
  golden::Iss iss(soc::golden_config_for(config.core));
  isa::DecodedProgram decoded;
  soc::RunOutput dut_out;
  isa::ArchResult golden_out;
  const std::size_t universe = dut.coverage_universe();
  coverage::Accumulator global(universe);
  coverage::Map arm_coverage(universe);
  fuzz::Corpus corpus(std::string(soc::core_name(config.core)), universe,
                      config.policy.corpus_cap);
  const std::unique_ptr<mab::Bandit> bandit = policy_bandit(config);
  const core::RewardConfig reward_config{config.policy.alpha};

  WorkCounters c;
  fuzz::TestCase parent;
  for (std::uint64_t i = 0; i < tests; ++i) {
    const std::int32_t root = tracer.begin(SpanName::kReplayTest);
    fuzz::TestCase test;
    if (i % kLineage == 0) {
      const Scoped span(tracer, SpanName::kMakeSeed, root);
      test = generator.make_seed();
    } else {
      const Scoped span(tracer, SpanName::kMakeMutant, root);
      test = generator.make_mutant(parent);
    }
    if (i % kLineage == 0) {
      arm_coverage.clear();
    }
    {
      const Scoped span(tracer, SpanName::kDecodeBuild, root);
      decoded.build(test.words);
    }
    {
      const Scoped span(tracer, SpanName::kPipeline, root);
      dut.run(test.words, decoded, dut_out);
    }
    {
      const Scoped span(tracer, SpanName::kIss, root);
      iss.run(test.words, decoded, golden_out);
    }
    bool mismatch = false;
    {
      const Scoped span(tracer, SpanName::kCompare, root);
      mismatch = fuzz::compare(dut_out.arch, golden_out).has_value();
    }
    std::size_t arm = 0;
    if (bandit) {
      const Scoped span(tracer, SpanName::kSelect, root);
      arm = bandit->select();
    }
    core::RewardBreakdown reward;
    {
      const Scoped span(tracer, SpanName::kReward, root);
      reward = core::compute_reward(reward_config, dut_out.test_coverage,
                                    arm_coverage, global.global());
    }
    std::size_t new_points = 0;
    {
      const Scoped span(tracer, SpanName::kAbsorb, root);
      new_points = global.absorb(dut_out.test_coverage);
    }
    arm_coverage.merge(dut_out.test_coverage);
    if (bandit) {
      double fed = reward.reward;
      if (bandit->requires_normalized_reward()) {
        fed /= static_cast<double>(universe);
      }
      const Scoped span(tracer, SpanName::kUpdate, root);
      bandit->update(arm, fed);
    }
    {
      const Scoped span(tracer, SpanName::kCorpusOffer, root);
      corpus.offer(test, dut_out.test_coverage);
    }
    tracer.end(root);

    ++c.tests;
    c.dut_cycles += dut_out.cycles;
    c.commits += dut_out.arch.commits.size();
    c.traps += count_traps(dut_out.arch);
    c.golden_instret += golden_out.instret;
    c.firings += dut_out.firings.size();
    c.mismatches += mismatch ? 1 : 0;
    c.new_points += new_points;
    c.coverage_hits += dut_out.test_coverage.count();
    if (i % kLineage == 0 || reward.cov_local > 0) {
      parent = std::move(test);
    }
  }
  c.decode_lookups = decoded.lookups();
  c.decode_misses = decoded.misses();
  c.corpus_entries = corpus.size();
  return c;
}

std::uint64_t replay_checkpoint(const harness::CampaignConfig& config,
                                std::uint64_t steps, const std::string& path,
                                Tracer& tracer) {
  harness::Campaign campaign(config);
  campaign.run_slice(harness::StopCondition::max_tests(config.max_tests), steps);
  {
    const Scoped span(tracer, SpanName::kCheckpointSave, -1);
    harness::Checkpoint::capture(campaign).save(path);
  }
  const std::uint64_t bytes = std::filesystem::file_size(path);
  std::unique_ptr<harness::Checkpoint> loaded;
  {
    const Scoped span(tracer, SpanName::kCheckpointLoad, -1);
    loaded = std::make_unique<harness::Checkpoint>(harness::Checkpoint::load(path));
  }
  std::unique_ptr<harness::Campaign> resumed;
  {
    const Scoped span(tracer, SpanName::kResume, -1);
    resumed = harness::resume_campaign(*loaded);
  }
  std::filesystem::remove(path);
  if (resumed->tests_executed() != campaign.tests_executed() ||
      resumed->covered() != campaign.covered()) {
    throw std::runtime_error("checkpoint replay: resumed campaign differs");
  }
  return bytes;
}

}  // namespace e2ebench
