/// Thread-safety audit for the simulator stack: concurrent Simulator
/// instances (one per campaign worker) must not share mutable state.
/// These tests run full device scenarios from several threads at once and
/// assert the results equal a single-threaded reference run — and they are
/// the payload of the ThreadSanitizer CI job, which turns any hidden
/// static/global into a reported race.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/apps/campaign.hpp"
#include "src/attest/golden.hpp"
#include "src/exp/campaign.hpp"
#include "src/exp/report.hpp"
#include "src/smarm/campaign.hpp"
#include "src/support/rng.hpp"

namespace rasc::exp {
namespace {

TEST(Concurrency, ParallelLockScenariosMatchSerialReference) {
  apps::LockMatrixCampaignOptions options;
  options.trials = 6;
  options.seed = 5;
  auto make = [&](std::size_t threads) {
    CampaignSpec spec = apps::make_lock_matrix_campaign(options);
    // Trim the grid so the test stays fast under TSan.
    spec.grid.set_axis("lock", {std::string("No-Lock"), std::string("Dec-Lock"),
                                std::string("Cpy-Lock")});
    spec.grid.set_axis("adversary", {std::string("transient"), std::string("roving")});
    spec.threads = threads;
    return spec;
  };
  const CampaignResult serial = run_campaign(make(1));
  const CampaignResult parallel = run_campaign(make(4));
  EXPECT_EQ(campaign_json(parallel), campaign_json(serial));
}

TEST(Concurrency, ParallelFullStackSmarmMatchesSerialReference) {
  smarm::EscapeCampaignOptions options;
  options.trials = 12;
  options.seed = 3;
  auto make = [&](std::size_t threads) {
    CampaignSpec spec = smarm::make_fullstack_escape_campaign(options);
    spec.grid.set_axis("blocks", {std::int64_t{8}, std::int64_t{12}});
    spec.threads = threads;
    return spec;
  };
  const CampaignResult serial = run_campaign(make(1));
  const CampaignResult parallel = run_campaign(make(4));
  EXPECT_EQ(campaign_json(parallel), campaign_json(serial));
}

TEST(Concurrency, ParallelFireAlarmScenariosMatchSerialReference) {
  apps::FireAlarmCampaignOptions options;
  options.trials = 4;
  options.seed = 7;
  auto make = [&](std::size_t threads) {
    CampaignSpec spec = apps::make_fire_alarm_campaign(options);
    spec.grid.set_axis("memory_mb", {std::int64_t{100}});
    spec.threads = threads;
    return spec;
  };
  const CampaignResult serial = run_campaign(make(1));
  const CampaignResult parallel = run_campaign(make(4));
  EXPECT_EQ(campaign_json(parallel), campaign_json(serial));
}

// The prover's digest cache is a host-side optimization: a campaign rerun
// without it must aggregate byte-identically, at the trial counts of the
// Section 2.5 and Section 3.2 reproductions (EXPERIMENTS.md).
TEST(Concurrency, FireAlarmAggregatesIgnoreDigestCache) {
  const CampaignSpec cached = apps::make_fire_alarm_campaign({.trials = 40});
  const CampaignSpec uncached =
      apps::make_fire_alarm_campaign({.trials = 40, .use_digest_cache = false});
  EXPECT_EQ(campaign_json(run_campaign(cached)), campaign_json(run_campaign(uncached)));
}

TEST(Concurrency, FullStackSmarmAggregatesIgnoreDigestCache) {
  const CampaignSpec cached = smarm::make_fullstack_escape_campaign({.trials = 300});
  const CampaignSpec uncached =
      smarm::make_fullstack_escape_campaign({.trials = 300, .use_digest_cache = false});
  EXPECT_EQ(campaign_json(run_campaign(cached)), campaign_json(run_campaign(uncached)));
}

TEST(Concurrency, SharedGoldenMeasurementIsSafeAcrossThreads) {
  // One immutable GoldenMeasurement shared by const reference across many
  // workers, as the campaign factories do — TSan flags any hidden mutation.
  constexpr std::size_t kBlocks = 16;
  constexpr std::size_t kBlockSize = 128;
  const auto golden = std::make_shared<const attest::GoldenMeasurement>(
      support::random_bytes(11, kBlocks * kBlockSize), kBlockSize, crypto::HashKind::kSha256,
      support::to_bytes("k"));

  const attest::MeasurementContext context{"dev", support::to_bytes("c"), 3};
  const support::Bytes reference = golden->expected(context);

  constexpr std::size_t kThreads = 8;
  std::vector<support::Bytes> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 16; ++round) {
        results[t] = golden->expected(context);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& r : results) EXPECT_EQ(r, reference);
}

}  // namespace
}  // namespace rasc::exp
