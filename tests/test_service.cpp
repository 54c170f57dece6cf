// CampaignService tests: admission control (duplicate names, queue and
// per-tenant caps, bad configs), FIFO completion order, byte-identical
// artifacts for any lane count, pause / resume / cancel at slice
// boundaries, interrupt-and-resume byte-identity of every artifact, a
// single round of stop()-time checkpoints however often stop() runs, and
// the ordering of terminal events before drain() returns.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "harness/service.hpp"

namespace mabfuzz::harness {
namespace {

CampaignConfig tiny(std::uint64_t tests = 300, std::uint64_t seed = 5) {
  CampaignConfig config;
  config.fuzzer = "ucb";
  config.core = soc::CoreKind::kRocket;
  config.max_tests = tests;
  config.rng_seed = seed;
  config.snapshot_every = 50;
  return config;
}

JobSpec job(std::string name, CampaignConfig config,
            std::string tenant = "t") {
  JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.name = std::move(name);
  spec.config = std::move(config);
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return std::move(out).str();
}

/// Spins (1ms steps, ~10s cap) until `ready()`; fails the test on timeout.
template <typename Fn>
void wait_until(Fn&& ready, const char* what) {
  for (int i = 0; i < 10'000; ++i) {
    if (ready()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "timed out waiting for " << what;
}

// --- admission ------------------------------------------------------------------

TEST(ServiceAdmissionTest, RejectsDuplicateJobNames) {
  CampaignService service(ServiceConfig{});
  service.submit(job("dup", tiny(50)));
  EXPECT_THROW(service.submit(job("dup", tiny(50))), std::invalid_argument);
}

TEST(ServiceAdmissionTest, EnforcesQueueCapWithBackpressure) {
  ServiceConfig config;
  config.queue_cap = 2;
  CampaignService service(config);
  service.submit(job("a", tiny(50)));
  service.submit(job("b", tiny(50)));
  try {
    service.submit(job("c", tiny(50)));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("queue is full"), std::string::npos);
  }
}

TEST(ServiceAdmissionTest, EnforcesPerTenantCap) {
  ServiceConfig config;
  config.per_tenant_cap = 1;
  CampaignService service(config);
  service.submit(job("a1", tiny(50), "alpha"));
  // A different tenant still has room...
  service.submit(job("b1", tiny(50), "beta"));
  // ...but tenant alpha is at its cap.
  try {
    service.submit(job("a2", tiny(50), "alpha"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos);
  }
}

TEST(ServiceAdmissionTest, RejectsUnknownFuzzerAtSubmitTime) {
  CampaignConfig config = tiny(50);
  config.fuzzer = "no-such-policy";
  CampaignService service(ServiceConfig{});
  try {
    service.submit(job("bad", std::move(config)));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-policy"), std::string::npos);
    EXPECT_NE(message.find("ucb"), std::string::npos);  // lists known names
  }
}

TEST(ServiceAdmissionTest, ZeroArmsIsRefusedWithoutHarmingOtherTenants) {
  // A bandit with no arms is a bad config, not a process-fatal error: the
  // submit fails and the running tenant's job still finishes.
  ServiceConfig config;
  config.workers = 1;
  config.slice = 50;
  CampaignService service(config);
  service.submit(job("good", tiny(300), "a"));
  service.start();

  CampaignConfig zero_arms = tiny(300);
  zero_arms.policy.bandit.num_arms = 0;  // bypasses the key parser
  EXPECT_THROW(service.submit(job("bad", zero_arms, "b")),
               std::invalid_argument);
  const std::vector<std::string> pairs = {"fuzzer=ucb", "arms=0"};
  EXPECT_THROW(service.submit(job("bad", CampaignConfig::from_pairs(pairs), "b")),
               std::invalid_argument);
  EXPECT_FALSE(service.status("bad").has_value());

  service.drain();
  service.stop();
  ASSERT_TRUE(service.status("good").has_value());
  EXPECT_EQ(service.status("good")->state, JobState::kDone);
  EXPECT_EQ(service.status("good")->tests_executed, 300u);
}

TEST(ServiceAdmissionTest, NanRateIsRefusedWithoutHarmingOtherTenants) {
  // A serve submit is parsed by CampaignConfig::from_pairs before it
  // reaches submit(): eta=nan must fail there, naming the key, while the
  // running tenant's job finishes.
  ServiceConfig config;
  config.workers = 1;
  config.slice = 50;
  CampaignService service(config);
  service.submit(job("good", tiny(300), "a"));
  service.start();

  const std::vector<std::string> pairs = {"fuzzer=exp3", "tests=300", "eta=nan"};
  try {
    service.submit(job("bad", CampaignConfig::from_pairs(pairs), "b"));
    FAIL() << "eta=nan was admitted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'eta'"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(service.status("bad").has_value());

  service.drain();
  service.stop();
  ASSERT_TRUE(service.status("good").has_value());
  EXPECT_EQ(service.status("good")->state, JobState::kDone);
  EXPECT_EQ(service.status("good")->tests_executed, 300u);
}

// --- scheduling -----------------------------------------------------------------

TEST(ServiceSchedulingTest, SingleWorkerCompletesJobsInSubmissionOrder) {
  std::ostringstream events;
  ServiceConfig config;
  config.workers = 1;
  config.slice = 1'000;  // each job finishes within one slice
  CampaignService service(config, &events);
  service.submit(job("first", tiny(80, 1)));
  service.submit(job("second", tiny(80, 2)));
  service.submit(job("third", tiny(80, 3)));
  service.start();
  service.drain();
  service.stop();

  std::vector<std::string> done_order;
  std::istringstream lines(events.str());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');  // every event line is one JSON object
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"event\":\"done\"") == std::string::npos) {
      continue;
    }
    for (const char* name : {"first", "second", "third"}) {
      if (line.find('"' + std::string(name) + '"') != std::string::npos) {
        done_order.push_back(name);
      }
    }
  }
  EXPECT_EQ(done_order,
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(ServiceSchedulingTest, LaneCountNeverChangesArtifacts) {
  // Small slices interleave the jobs across lanes; a job is only ever
  // stepped by one lane at a time, so its artifacts match the 1-lane run.
  const std::string dir = testing::TempDir();
  auto run_service = [&](unsigned workers) {
    ServiceConfig config;
    config.workers = workers;
    config.slice = 40;
    CampaignService service(config);
    for (int j = 0; j < 4; ++j) {
      JobSpec spec = job("job-" + std::to_string(j), tiny(200, 100 + j));
      spec.artifact_out = dir + "lanes" + std::to_string(workers) + "-j" +
                          std::to_string(j);
      service.submit(std::move(spec));
    }
    service.start();
    service.drain();
    service.stop();
  };
  run_service(1);
  run_service(3);

  for (int j = 0; j < 4; ++j) {
    const std::string suffix = "-j" + std::to_string(j);
    for (const char* ext : {".json", ".csv"}) {
      const std::string one_lane = read_file(dir + "lanes1" + suffix + ext);
      ASSERT_FALSE(one_lane.empty()) << suffix << ext;
      EXPECT_EQ(read_file(dir + "lanes3" + suffix + ext), one_lane)
          << suffix << ext;
      std::remove((dir + "lanes1" + suffix + ext).c_str());
      std::remove((dir + "lanes3" + suffix + ext).c_str());
    }
  }
}

/// An event sink that yields and sleeps before it records a terminal
/// line, widening the window in which a lane could still be writing it.
class SlowTerminalSink final : public std::streambuf {
 public:
  [[nodiscard]] std::vector<std::string> lines() const {
    const std::lock_guard<std::mutex> guard(mutex_);
    return lines_;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (ch == traits_type::eof()) {
      return traits_type::not_eof(ch);
    }
    if (ch != '\n') {
      line_.push_back(static_cast<char>(ch));
      return ch;
    }
    for (const char* terminal : {"\"done\"", "\"failed\"", "\"cancelled\""}) {
      if (line_.find(terminal) != std::string::npos) {
        std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    const std::lock_guard<std::mutex> guard(mutex_);
    lines_.push_back(std::move(line_));
    line_.clear();
    return ch;
  }

 private:
  std::string line_;  // written by one emitter at a time (events mutex)
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

TEST(ServiceSchedulingTest, DrainReturnsAfterEveryTerminalEventIsWritten) {
  SlowTerminalSink sink;
  std::ostream events(&sink);
  ServiceConfig config;
  config.workers = 2;
  config.slice = 1'000;  // each job finishes within one slice
  CampaignService service(config, &events);
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    service.submit(job(names[i], tiny(40, 20 + i)));
  }
  service.start();
  service.drain();
  // Read before stop(): drain() alone must order the terminal events.
  const std::vector<std::string> lines = sink.lines();
  for (const JobStatus& status : service.jobs()) {
    ASSERT_EQ(status.state, JobState::kDone) << status.name;
    const std::string done =
        "{\"event\":\"done\",\"job\":\"" + status.name + "\"";
    EXPECT_TRUE(std::any_of(lines.begin(), lines.end(),
                            [&](const std::string& line) {
                              return line.rfind(done, 0) == 0;
                            }))
        << "no done event for " << status.name << " when drain() returned";
  }
  service.stop();
}

TEST(ServiceSchedulingTest, StatusTracksProgressAndTerminalStates) {
  CampaignService service(ServiceConfig{});
  service.submit(job("watched", tiny(100)));
  ASSERT_TRUE(service.status("watched").has_value());
  EXPECT_EQ(service.status("watched")->state, JobState::kQueued);
  EXPECT_FALSE(service.status("missing").has_value());
  service.start();
  service.drain();
  const std::optional<JobStatus> status = service.status("watched");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_EQ(status->tests_executed, 100u);
  EXPECT_GT(status->covered, 0u);
  service.stop();
}

TEST(ServiceControlTest, PauseParksAndResumeContinues) {
  ServiceConfig config;
  config.workers = 1;
  config.slice = 25;
  CampaignService service(config);
  service.submit(job("pausable", tiny(200)));
  // Requested before start(): the job parks at its first slice boundary,
  // having executed nothing.
  EXPECT_TRUE(service.pause("pausable"));
  service.start();
  wait_until(
      [&] { return service.status("pausable")->state == JobState::kPaused; },
      "job to park");
  EXPECT_EQ(service.status("pausable")->tests_executed, 0u);
  // A drain is not blocked by a paused job.
  service.drain();

  EXPECT_TRUE(service.resume("pausable"));
  wait_until(
      [&] { return service.status("pausable")->state == JobState::kDone; },
      "job to finish");
  EXPECT_EQ(service.status("pausable")->tests_executed, 200u);
  // Terminal jobs reject further control.
  EXPECT_FALSE(service.pause("pausable"));
  EXPECT_FALSE(service.resume("pausable"));
  EXPECT_FALSE(service.cancel("pausable"));
  service.stop();
}

TEST(ServiceControlTest, CancelStopsAJobEarly) {
  ServiceConfig config;
  config.workers = 1;
  config.slice = 10;
  CampaignService service(config);
  service.submit(job("doomed", tiny(100'000)));  // far too long to finish
  service.start();
  wait_until(
      [&] { return service.status("doomed")->tests_executed >= 10; },
      "job to make progress");
  EXPECT_TRUE(service.cancel("doomed"));
  wait_until(
      [&] { return service.status("doomed")->state == JobState::kCancelled; },
      "job to cancel");
  service.drain();
  EXPECT_LT(service.status("doomed")->tests_executed, 100'000u);
  service.stop();
}

TEST(ServiceControlTest, CancelAppliesToPausedJobsImmediately) {
  CampaignService service(ServiceConfig{});
  service.submit(job("parked", tiny(100)));
  EXPECT_TRUE(service.pause("parked"));
  service.start();
  wait_until(
      [&] { return service.status("parked")->state == JobState::kPaused; },
      "job to park");
  EXPECT_TRUE(service.cancel("parked"));
  EXPECT_EQ(service.status("parked")->state, JobState::kCancelled);
  service.stop();
}

// --- interrupt + resume byte-identity -------------------------------------------

/// The acceptance property: a campaign interrupted into a checkpoint and
/// resumed in a fresh service produces byte-identical artifacts (JSON,
/// CSV, corpus store) to an uninterrupted run.
TEST(ServiceResumeTest, InterruptAndResumeIsByteIdentical) {
  const std::string dir = testing::TempDir();
  const std::string artifact = dir + "svc-artifact";
  const std::string corpus = dir + "svc-corpus.bin";

  CampaignConfig campaign = tiny(900, 21);
  campaign.corpus_out = corpus;

  ServiceConfig config;
  config.workers = 2;
  config.slice = 50;
  config.checkpoint_dir = dir;

  // Uninterrupted reference.
  {
    CampaignService service(config);
    JobSpec spec = job("ref", campaign);
    spec.artifact_out = artifact;
    service.submit(std::move(spec));
    service.start();
    service.drain();
    service.stop();
  }
  const std::string ref_json = read_file(artifact + ".json");
  const std::string ref_csv = read_file(artifact + ".csv");
  const std::string ref_corpus = read_file(corpus);
  ASSERT_FALSE(ref_json.empty());
  ASSERT_FALSE(ref_corpus.empty());
  std::remove((artifact + ".json").c_str());
  std::remove((artifact + ".csv").c_str());
  std::remove(corpus.c_str());

  // Interrupted run: park the job mid-campaign, stop the service (the
  // final checkpoint is written), resume in a brand-new service.
  {
    CampaignService service(config);
    JobSpec spec = job("victim", campaign);
    spec.artifact_out = artifact;
    service.submit(std::move(spec));
    service.start();
    wait_until(
        [&] { return service.status("victim")->tests_executed >= 100; },
        "mid-run progress");
    ASSERT_TRUE(service.pause("victim"));
    wait_until(
        [&] { return service.status("victim")->state == JobState::kPaused; },
        "job to park");
    ASSERT_LT(service.status("victim")->tests_executed, 900u);
    service.stop();
  }
  const std::string checkpoint = dir + "victim.ckpt";
  ASSERT_FALSE(read_file(checkpoint).empty());
  {
    CampaignService service(config);
    EXPECT_EQ(service.resume_from_checkpoint(checkpoint), "victim");
    service.start();
    service.drain();
    service.stop();
    EXPECT_EQ(service.status("victim")->state, JobState::kDone);
    EXPECT_EQ(service.status("victim")->tests_executed, 900u);
  }
  EXPECT_EQ(read_file(artifact + ".json"), ref_json) << "resume diverged";
  EXPECT_EQ(read_file(artifact + ".csv"), ref_csv);
  EXPECT_EQ(read_file(corpus), ref_corpus);
  // The settled job's checkpoint is removed.
  EXPECT_TRUE(read_file(checkpoint).empty());
  std::remove((artifact + ".json").c_str());
  std::remove((artifact + ".csv").c_str());
  std::remove(corpus.c_str());
}

TEST(ServiceResumeTest, RepeatedStopWritesOneRoundOfCheckpoints) {
  // `serve` calls stop() and then the destructor calls it again; only the
  // first call may park unfinished jobs in checkpoints.
  const std::string dir = testing::TempDir();
  std::ostringstream events;
  {
    ServiceConfig config;
    config.workers = 2;
    config.slice = 50;
    config.checkpoint_dir = dir;
    CampaignService service(config, &events);
    service.submit(job("twice", tiny(1'000'000, 9)));
    service.start();
    service.stop();
    service.stop();
    EXPECT_NE(service.status("twice")->state, JobState::kDone);
  }
  std::size_t checkpoints = 0;
  std::istringstream lines(events.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"event\":\"checkpoint\"") != std::string::npos) {
      ++checkpoints;
    }
  }
  EXPECT_EQ(checkpoints, 1u) << events.str();
  std::remove((dir + "twice.ckpt").c_str());
}

}  // namespace
}  // namespace mabfuzz::harness
