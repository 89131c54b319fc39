/// End-to-end flight-recorder coverage: the network and fire-alarm
/// scenarios populate the journal and health rollup through the real
/// sim/attest/apps plumbing, the journal is deterministic and inert
/// (attaching it changes nothing observable), timelines reconstruct the
/// rounds, and campaign health aggregates are thread-count independent.

#include <gtest/gtest.h>

#include <set>

#include "src/apps/campaign.hpp"
#include "src/apps/scenario.hpp"
#include "src/crypto/hash.hpp"
#include "src/exp/report.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/timeline.hpp"
#include "src/smarm/runner.hpp"
#include "src/support/hex.hpp"

namespace rasc::apps {
namespace {

NetworkScenarioConfig lossy_config() {
  NetworkScenarioConfig config;
  config.rounds = 4;
  config.drop_probability = 0.3;
  config.duplicate_probability = 0.05;
  config.reorder_probability = 0.05;
  config.corrupt_probability = 0.02;
  config.session.max_attempts = 4;
  config.session.response_timeout = 60 * sim::kMillisecond;
  config.session.backoff_base = 20 * sim::kMillisecond;
  config.seed = 7;
  return config;
}

std::size_t count_kind(const obs::EventJournal& journal,
                       obs::JournalEventKind kind) {
  obs::JournalFilter filter;
  filter.kind = kind;
  return journal.count(filter);
}

TEST(JournalIntegration, NetworkScenarioPopulatesJournalAndHealth) {
  obs::EventJournal journal;
  NetworkScenarioConfig config = lossy_config();
  config.journal = &journal;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  const obs::HealthRollup& health = outcome.health;
  ASSERT_TRUE(outcome.all_resolved);
  ASSERT_FALSE(journal.empty());

  // One session.start / session.resolved pair per round, one
  // session.attempt per challenge sent.
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kSessionStart),
            outcome.rounds_requested);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kSessionResolved),
            outcome.rounds_resolved);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kSessionAttempt),
            outcome.total_attempts);
  // Link fates recorded per direction under the documented actor names.
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kLinkSend),
            outcome.links.sent);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kLinkDrop),
            outcome.links.dropped);
  obs::JournalFilter forward;
  forward.actor = journal.intern("vrf->prv");
  EXPECT_GT(journal.count(forward), 0u);
  obs::JournalFilter reverse;
  reverse.actor = journal.intern("prv->vrf");
  EXPECT_GT(journal.count(reverse), 0u);

  // The health rollup saw exactly the rounds the outcome reports.
  EXPECT_EQ(health.rounds(), outcome.rounds_resolved);
  EXPECT_EQ(health.outcome_count(obs::RoundOutcome::kVerified), outcome.verified);
  EXPECT_EQ(health.outcome_count(obs::RoundOutcome::kTimeout), outcome.timeouts);
  EXPECT_EQ(health.outcome_count(obs::RoundOutcome::kCorruptReport),
            outcome.corrupt_report);
  EXPECT_EQ(health.outcome_count(obs::RoundOutcome::kReplayRejected),
            outcome.replay_rejected);
  EXPECT_DOUBLE_EQ(health.wasted_measure_ms_total(),
                   sim::to_millis(outcome.wasted_measure_time));
}

TEST(JournalIntegration, AttachingJournalChangesNothingObservable) {
  // The flight recorder must be a pure observer: no RNG draws, no timing.
  NetworkScenarioConfig bare = lossy_config();
  const NetworkScenarioOutcome without = run_network_scenario(bare);
  obs::EventJournal journal;
  NetworkScenarioConfig observed = lossy_config();
  observed.journal = &journal;
  const NetworkScenarioOutcome with = run_network_scenario(observed);
  EXPECT_EQ(with.verified, without.verified);
  EXPECT_EQ(with.timeouts, without.timeouts);
  EXPECT_EQ(with.total_attempts, without.total_attempts);
  EXPECT_EQ(with.total_round_latency, without.total_round_latency);
  EXPECT_EQ(with.links.sent, without.links.sent);
  EXPECT_EQ(with.links.dropped, without.links.dropped);
  EXPECT_EQ(with.links.duplicated, without.links.duplicated);
  EXPECT_EQ(with.wasted_measure_time, without.wasted_measure_time);
  EXPECT_GT(journal.size(), 0u);

  // The atomic fire alarm: CPU segments and waits, the measurement window
  // and the deadline events are journaled without moving any outcome.
  FireAlarmScenarioConfig fire;
  fire.mode = attest::ExecutionMode::kAtomic;
  const FireAlarmScenarioOutcome fire_without = run_fire_alarm_scenario(fire);
  obs::EventJournal fire_journal;
  fire.journal = &fire_journal;
  const FireAlarmScenarioOutcome fire_with = run_fire_alarm_scenario(fire);
  EXPECT_GT(fire_with.deadline_misses, 0u);
  EXPECT_EQ(fire_with.alarm_latency, fire_without.alarm_latency);
  EXPECT_EQ(fire_with.deadline_misses, fire_without.deadline_misses);
  EXPECT_EQ(fire_with.measurement_duration, fire_without.measurement_duration);
  EXPECT_EQ(fire_with.max_sample_delay, fire_without.max_sample_delay);
  EXPECT_EQ(fire_with.attestation_ok, fire_without.attestation_ok);

  // The SMARM runner: relocating malware against shuffled interruptible
  // rounds, now with smarm.round spans and memory lock events journaled.
  smarm::RunnerConfig smarm_config;
  smarm_config.blocks = 16;
  smarm_config.rounds = 4;
  smarm_config.seed = 5;
  const smarm::RunnerOutcome smarm_without = smarm::run_rounds(smarm_config);
  obs::EventJournal smarm_journal;
  smarm_config.journal = &smarm_journal;
  const smarm::RunnerOutcome smarm_with = smarm::run_rounds(smarm_config);
  EXPECT_EQ(obs::count_named(smarm_journal, "smarm.round"), smarm_config.rounds);
  EXPECT_GT(smarm_with.detections, 0u);
  EXPECT_EQ(smarm_with.rounds_run, smarm_without.rounds_run);
  EXPECT_EQ(smarm_with.detections, smarm_without.detections);
  EXPECT_EQ(smarm_with.malware_relocations, smarm_without.malware_relocations);
  EXPECT_EQ(smarm_with.malware_blocked_relocations,
            smarm_without.malware_blocked_relocations);
}

TEST(JournalIntegration, ParentKindsAreUnchangedByTimelineKinds) {
  // Restricted to the 24 kinds that predate the timeline kinds (CPU,
  // prover window, protocol, memory, queue, SeED/ERASMUS/SMARM), a lossy
  // infected run's NDJSON must stay byte-identical to the recording made
  // before those kinds existed: adding events may not move, drop or
  // reorder any existing one.
  static const std::set<std::string> kParentKinds = {
      "link.send", "link.deliver", "link.drop", "link.partition_drop",
      "link.duplicate", "link.corrupt", "link.reorder", "session.start",
      "session.attempt", "session.attempt_timeout", "session.backoff",
      "session.replay_rejected", "session.corrupt_report", "session.late_report",
      "session.resolved", "cache.hit", "cache.miss", "app.deadline_hit",
      "app.deadline_miss", "app.alarm_raised", "mtree.rehash", "mtree.proof",
      "fleet.hibernate", "fleet.wake"};
  obs::EventJournal journal;
  NetworkScenarioConfig config = lossy_config();
  config.infected = true;
  config.journal = &journal;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  ASSERT_EQ(outcome.compromised, 4u);

  const std::string ndjson = journal.to_ndjson();
  std::string filtered;
  std::size_t lines = 0;
  for (std::size_t pos = 0; pos < ndjson.size();) {
    const std::size_t eol = ndjson.find('\n', pos);
    const std::string line = ndjson.substr(pos, eol + 1 - pos);
    const std::size_t kind_at = line.find("\"kind\":\"") + 8;
    if (kParentKinds.count(line.substr(kind_at, line.find('"', kind_at) - kind_at))) {
      filtered += line;
      ++lines;
    }
    pos = eol + 1;
  }
  EXPECT_GT(journal.size(), lines);  // the timeline kinds are there too
  EXPECT_EQ(lines, 162u);
  EXPECT_EQ(support::hex_encode(crypto::hash_oneshot(crypto::HashKind::kSha256,
                                                     support::to_bytes(filtered))),
            "3091288888d4bafeb588178e05c56c8254c0dcdfb59d43e74a8fc4e00c87c47c");
}

TEST(JournalIntegration, NdjsonIsByteIdenticalAcrossReruns) {
  const auto capture = [] {
    obs::EventJournal journal;
    NetworkScenarioConfig config = lossy_config();
    config.journal = &journal;
    (void)run_network_scenario(config);
    return journal.to_ndjson();
  };
  const std::string first = capture();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(capture(), first);
}

TEST(JournalIntegration, TimelinesReconstructEveryRound) {
  obs::EventJournal journal;
  NetworkScenarioConfig config = lossy_config();
  config.journal = &journal;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  const auto rounds = obs::build_round_timelines(journal);
  ASSERT_EQ(rounds.size(), outcome.rounds_resolved);
  std::uint64_t attempts = 0;
  std::uint64_t wasted = 0;
  for (const auto& rt : rounds) {
    EXPECT_TRUE(rt.resolved());
    EXPECT_GE(rt.t_resolved, rt.t_start);
    attempts += rt.attempts;
    wasted += rt.wasted_measure_ns;
  }
  EXPECT_EQ(attempts, outcome.total_attempts);
  EXPECT_EQ(wasted, outcome.wasted_measure_time);
  // The transcript renders every round and names the prover.
  const std::string text = obs::explain(journal);
  EXPECT_NE(text.find("round 1 on prv-net"), std::string::npos) << text;
}

TEST(JournalIntegration, ProtocolEmitsMatchedChallengeAndReportFlows) {
  // Every clean round produces one challenge flow (vrf -> prover track)
  // and one report flow back, each a matched s/f pair in the Chrome
  // export so Perfetto draws the arrows across tracks.
  obs::EventJournal journal;
  NetworkScenarioConfig config;
  config.rounds = 2;
  config.journal = &journal;
  const NetworkScenarioOutcome outcome = run_network_scenario(config);
  ASSERT_EQ(outcome.verified, 2u);
  const std::string json = obs::to_chrome_json(journal);
  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"name\":\"ra.challenge\",\"cat\":\"flow\",\"ph\":\"s\""), 2u)
      << json;
  EXPECT_EQ(count("\"name\":\"ra.challenge\",\"cat\":\"flow\",\"ph\":\"f\""), 2u);
  EXPECT_EQ(count("\"name\":\"ra.report\",\"cat\":\"flow\",\"ph\":\"s\""), 2u);
  EXPECT_EQ(count("\"name\":\"ra.report\",\"cat\":\"flow\",\"ph\":\"f\""), 2u);
}

TEST(JournalIntegration, FireAlarmJournalRecordsDeadlinesAndAlarm) {
  obs::EventJournal journal;
  FireAlarmScenarioConfig config;
  config.modeled_memory_bytes = 64ull << 20;
  config.real_blocks = 64;
  config.mode = attest::ExecutionMode::kAtomic;
  config.journal = &journal;
  const FireAlarmScenarioOutcome outcome = run_fire_alarm_scenario(config);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kDeadlineHit) +
                count_kind(journal, obs::JournalEventKind::kDeadlineMiss),
            outcome.samples_taken);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kDeadlineMiss),
            outcome.deadline_misses);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kAlarmRaised), 1u);
  obs::JournalFilter alarm;
  alarm.kind = obs::JournalEventKind::kAlarmRaised;
  EXPECT_EQ(journal.first(alarm)->a, outcome.alarm_latency);
}

TEST(JournalIntegration, CampaignHealthIsThreadCountIndependent) {
  const auto run = [](std::size_t threads) {
    NetworkReliabilityCampaignOptions options;
    options.trials = 8;
    options.seed = 3;
    options.threads = threads;
    options.rounds = 2;
    exp::CampaignSpec spec = make_network_reliability_campaign(options);
    // One lossy cell keeps the test fast while exercising retries.
    spec.grid.set_axis("drop_pct", {std::int64_t{30}});
    spec.grid.set_axis("max_attempts", {std::int64_t{3}});
    spec.grid.set_axis("timeout_ms", {std::int64_t{60}});
    return exp::run_campaign(spec);
  };
  const exp::CampaignResult serial = run(1);
  const exp::CampaignResult parallel = run(4);
  ASSERT_EQ(serial.cells.size(), 1u);
  // The health rollup is part of the cell and folded across trials.
  EXPECT_EQ(serial.cells[0].health.rounds(), 8u * 2u);
  EXPECT_FALSE(serial.cells[0].health.empty());
  // The whole artifact — including the embedded health block — is
  // byte-identical for any thread count.
  EXPECT_EQ(exp::campaign_json(serial), exp::campaign_json(parallel));
  EXPECT_NE(exp::campaign_json(serial).find("\"health\""), std::string::npos);
}

}  // namespace
}  // namespace rasc::apps
