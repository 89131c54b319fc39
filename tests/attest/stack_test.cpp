// attest::Stack::reseat: a stack that has run faulty, infected rounds and
// is re-seated for another device must behave exactly like a stack freshly
// built for that device — same journal bytes, counters and round results.

#include "src/attest/stack.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/journal.hpp"
#include "src/support/rng.hpp"
#include "tests/support/fleet_fixtures.hpp"

namespace rasc::attest {
namespace {

constexpr std::size_t kBlockSize = 64;

/// Lossy, duplicating, corrupting and reordering in one direction.
sim::LinkConfig faulty_link(const char* name, std::uint64_t seed) {
  sim::LinkConfig link;
  link.name = name;
  link.drop_probability = 0.2;
  link.duplicate_probability = 0.15;
  link.corrupt_probability = 0.1;
  link.reorder_probability = 0.1;
  link.seed = seed;
  return link;
}

/// One device of a shard: its own id, size, key, image, golden, K_chal
/// and seeds, so a re-seat between two of them changes every input.
struct Seat {
  support::Bytes image;
  StackConfig config;
};

Seat seat_for(std::uint64_t n, const std::string& id, std::size_t blocks, bool tree) {
  Seat seat;
  seat.image = support::random_bytes(100 + n, blocks * kBlockSize);
  StackConfig& config = seat.config;
  config.device = {id, seat.image.size(), kBlockSize, support::random_bytes(200 + n, 16)};
  config.golden = std::make_shared<const GoldenMeasurement>(
      seat.image, kBlockSize, crypto::HashKind::kSha256, config.device.attestation_key);
  config.challenge_key = make_challenge_key(300 + n);
  config.challenge_domain = n;
  config.prover.use_merkle_tree = tree;
  config.to_prv = faulty_link("vrf->prv", 400 + n);
  config.to_vrf = faulty_link("prv->vrf", 500 + n);
  config.session = testfx::fast_session_config();
  config.session.backoff_jitter = 0.3;
  config.session.seed = 600 + n;
  return seat;
}

/// Provision as the fleet does: tree mode primes from the clean image,
/// then the malware patch lands.
void provision(Stack& stack, bool tree) {
  if (tree) stack.mp.prime_tree();
  stack.infect();
}

std::vector<RoundResult> run_rounds(sim::Simulator& sim, Stack& stack, int rounds) {
  std::vector<RoundResult> results;
  for (int i = 0; i < rounds; ++i) {
    stack.session.run([&results](RoundResult r) { results.push_back(std::move(r)); });
    sim.run();  // drains late and duplicated copies too: quiescent after
  }
  return results;
}

void expect_same_round(const RoundResult& a, const RoundResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.attempt_timeouts, b.attempt_timeouts);
  EXPECT_EQ(a.replays_rejected, b.replays_rejected);
  EXPECT_EQ(a.corrupt_reports, b.corrupt_reports);
  EXPECT_EQ(a.t_started, b.t_started);
  EXPECT_EQ(a.t_resolved, b.t_resolved);
  EXPECT_EQ(a.backoff_total, b.backoff_total);
  EXPECT_EQ(a.measure_time, b.measure_time);
  EXPECT_EQ(a.wasted_measure_time, b.wasted_measure_time);
  EXPECT_EQ(a.verdict.ok(), b.verdict.ok());
  EXPECT_EQ(a.verdict.mac_ok, b.verdict.mac_ok);
  EXPECT_EQ(a.verdict.digest_ok, b.verdict.digest_ok);
  EXPECT_EQ(a.verdict.used_tree, b.verdict.used_tree);
  EXPECT_EQ(a.verdict.tree_root_bound, b.verdict.tree_root_bound);
  EXPECT_EQ(a.verdict.proofs_ok, b.verdict.proofs_ok);
  ASSERT_EQ(a.verdict.localized.size(), b.verdict.localized.size());
  for (std::size_t i = 0; i < a.verdict.localized.size(); ++i) {
    EXPECT_EQ(a.verdict.localized[i].first, b.verdict.localized[i].first);
    EXPECT_EQ(a.verdict.localized[i].count, b.verdict.localized[i].count);
  }
}

void expect_same_counters(Stack& a, Stack& b) {
  const StackCounters x = a.counters();
  const StackCounters y = b.counters();
  EXPECT_EQ(x.links.sent, y.links.sent);
  EXPECT_EQ(x.links.delivered, y.links.delivered);
  EXPECT_EQ(x.links.dropped, y.links.dropped);
  EXPECT_EQ(x.links.duplicated, y.links.duplicated);
  EXPECT_EQ(x.links.corrupted, y.links.corrupted);
  EXPECT_EQ(x.links.reordered, y.links.reordered);
  EXPECT_EQ(x.session.rounds_resolved, y.session.rounds_resolved);
  EXPECT_EQ(x.session.retries, y.session.retries);
  EXPECT_EQ(x.session.attempt_timeouts, y.session.attempt_timeouts);
  EXPECT_EQ(x.session.replays_rejected, y.session.replays_rejected);
  EXPECT_EQ(x.session.corrupt_reports, y.session.corrupt_reports);
  EXPECT_EQ(x.session.late_reports, y.session.late_reports);
  EXPECT_EQ(x.verifier.verify_total, y.verifier.verify_total);
  EXPECT_EQ(x.verifier.verify_fail, y.verifier.verify_fail);
  EXPECT_EQ(x.verifier.fail_mac, y.verifier.fail_mac);
  EXPECT_EQ(x.verifier.fail_digest, y.verifier.fail_digest);
  EXPECT_EQ(x.verifier.fail_challenge, y.verifier.fail_challenge);
  EXPECT_EQ(x.verifier.fail_tree_binding, y.verifier.fail_tree_binding);
  EXPECT_EQ(x.verifier.fail_proof, y.verifier.fail_proof);
  EXPECT_EQ(x.verifier.localized_ranges, y.verifier.localized_ranges);
  EXPECT_EQ(a.mp.digest_cache().hits(), b.mp.digest_cache().hits());
  EXPECT_EQ(a.mp.digest_cache().misses(), b.mp.digest_cache().misses());
  EXPECT_EQ(a.mp.digest_cache().stores(), b.mp.digest_cache().stores());
  EXPECT_EQ(a.mp.total_measure_time(), b.mp.total_measure_time());
}

/// The positions a hibernation record would save: challenge index, replay
/// floors, RNG states and message ids.  Challenges never reach the journal.
void expect_same_positions(const Stack& a, const Stack& b) {
  const Verifier::SessionState va = a.verifier.save_session_state();
  const Verifier::SessionState vb = b.verifier.save_session_state();
  EXPECT_EQ(va.issue_index, vb.issue_index);
  EXPECT_EQ(va.last_counter, vb.last_counter);
  EXPECT_EQ(va.outstanding_size, vb.outstanding_size);
  EXPECT_EQ(va.last_counter_seen, vb.last_counter_seen);
  const ReliableSession::State sa = a.session.save_state();
  const ReliableSession::State sb = b.session.save_state();
  EXPECT_EQ(sa.rng, sb.rng);
  EXPECT_EQ(sa.next_counter, sb.next_counter);
  EXPECT_EQ(sa.next_round_seq, sb.next_round_seq);
  EXPECT_EQ(sa.protocol.prover_counter_seen, sb.protocol.prover_counter_seen);
  EXPECT_EQ(sa.protocol.prover_last_counter, sb.protocol.prover_last_counter);
  for (const auto& [x, y] : {std::pair{&a.vrf_to_prv, &b.vrf_to_prv},
                             std::pair{&a.prv_to_vrf, &b.prv_to_vrf}}) {
    EXPECT_EQ(x->save_state().rng, y->save_state().rng);
    EXPECT_EQ(x->save_state().next_msg_id, y->save_state().next_msg_id);
  }
  EXPECT_EQ(a.mp.save_process_state().proof_backlog,
            b.mp.save_process_state().proof_backlog);
}

/// Run faulty, infected rounds on device 1, re-seat the stack to device 10
/// — a longer id, twice the memory, every key and seed different — and
/// compare its next rounds with those of a stack freshly built for device
/// 10 at the same simulated time.  Then re-seat it back to device 1.
void expect_reseat_matches_fresh_build(bool tree) {
  const Seat first = seat_for(1, "prv-1", 8, tree);
  const Seat second = seat_for(10, "prv-10", 16, tree);
  constexpr int kRounds = 6;

  sim::Simulator used_sim;
  Stack used(used_sim, first.config, first.image);
  provision(used, tree);
  const std::vector<RoundResult> before = run_rounds(used_sim, used, kRounds);
  ASSERT_EQ(before.size(), static_cast<std::size_t>(kRounds));
  ASSERT_TRUE(used.quiescent());
  ASSERT_GT(used.counters().links.dropped + used.counters().links.corrupted, 0u)
      << "the first device's rounds never met a fault";

  const sim::Time seated_at = used_sim.now();
  used.reseat(second.config, second.image);
  obs::EventJournal used_journal;
  used_sim.set_journal(&used_journal);
  provision(used, tree);
  const std::vector<RoundResult> reseated = run_rounds(used_sim, used, kRounds);

  // The fresh stack starts where the re-seated one did.
  sim::Simulator fresh_sim;
  fresh_sim.schedule_at(seated_at, [] {});
  fresh_sim.run();
  Stack fresh(fresh_sim, second.config, second.image);
  obs::EventJournal fresh_journal;
  fresh_sim.set_journal(&fresh_journal);
  provision(fresh, tree);
  const std::vector<RoundResult> built = run_rounds(fresh_sim, fresh, kRounds);

  ASSERT_EQ(reseated.size(), built.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    expect_same_round(reseated[i], built[i]);
  }
  expect_same_counters(used, fresh);
  expect_same_positions(used, fresh);
  EXPECT_GT(fresh.counters().links.dropped + fresh.counters().links.corrupted, 0u);
  const std::string ndjson = used_journal.to_ndjson();
  EXPECT_EQ(ndjson, fresh_journal.to_ndjson());
  // The re-seated core journals under the new id at its full length.
  EXPECT_NE(ndjson.find("\"actor\":\"prv-10\",\"kind\":\"cpu.segment\""),
            std::string::npos);
  EXPECT_EQ(ndjson.find("\"actor\":\"prv-1\","), std::string::npos);

  // Back to device 1 with the journal still attached: every name a member
  // cached for this journal must follow the shorter id.
  const std::size_t seated_events = used_journal.size();
  used.reseat(first.config, first.image);
  provision(used, tree);
  (void)run_rounds(used_sim, used, 2);
  ASSERT_GT(used_journal.size(), seated_events);
  for (std::size_t i = seated_events; i < used_journal.size(); ++i) {
    const obs::JournalEvent& e = used_journal.at(i);
    const std::string& actor = used_journal.actor_name(e.actor);
    EXPECT_TRUE(actor == "prv-1" || actor == "vrf->prv" || actor == "prv->vrf") << actor;
    if (e.session != 0) {
      EXPECT_EQ(used_journal.actor_name(e.session), "session/prv-1");
    }
  }
}

TEST(StackReseat, FlatModeMatchesAFreshBuild) {
  expect_reseat_matches_fresh_build(/*tree=*/false);
}

TEST(StackReseat, TreeModeMatchesAFreshBuild) {
  expect_reseat_matches_fresh_build(/*tree=*/true);
}

TEST(StackReseat, RefusesWhileARoundIsInFlight) {
  const Seat seat = seat_for(3, "prv-3", 4, false);
  sim::Simulator sim;
  Stack stack(sim, seat.config, seat.image);
  stack.session.run([](RoundResult) {});
  EXPECT_FALSE(stack.quiescent());
  EXPECT_THROW(stack.reseat(seat.config, seat.image), std::logic_error);
  sim.run();
  EXPECT_TRUE(stack.quiescent());
  EXPECT_NO_THROW(stack.reseat(seat.config, seat.image));
}

TEST(StackReseat, ForeignGoldenThrowsBeforeAnythingChanges) {
  Seat seat = seat_for(4, "prv-4", 4, false);
  seat.config.to_prv = {};
  seat.config.to_vrf = {};
  const Seat other = seat_for(5, "prv-5", 4, false);
  sim::Simulator sim;
  Stack stack(sim, seat.config, seat.image);
  StackConfig mismatched = other.config;
  mismatched.golden = seat.config.golden;  // not the key of `other`
  EXPECT_THROW(stack.reseat(mismatched, other.image), std::invalid_argument);
  // Still seated for its own device.
  EXPECT_EQ(stack.device.id(), "prv-4");
  RoundResult result;
  stack.session.run([&result](RoundResult r) { result = std::move(r); });
  sim.run();
  EXPECT_EQ(result.outcome, SessionOutcome::kVerified);
}

}  // namespace
}  // namespace rasc::attest
