#include "src/apps/campaign.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/attest/digest_cache.hpp"
#include "src/attest/prover.hpp"
#include "src/attest/stack.hpp"
#include "src/attest/verifier.hpp"
#include "src/locking/policies.hpp"

namespace rasc::apps {

namespace {

attest::ExecutionMode parse_mode(const std::string& name) {
  for (attest::ExecutionMode mode :
       {attest::ExecutionMode::kAtomic, attest::ExecutionMode::kInterruptible}) {
    if (attest::execution_mode_name(mode) == name) return mode;
  }
  throw std::invalid_argument("unknown execution mode '" + name + "'");
}

locking::LockMechanism parse_lock(const std::string& name) {
  for (locking::LockMechanism mechanism : locking::kAllLockMechanisms) {
    if (locking::lock_mechanism_name(mechanism) == name) return mechanism;
  }
  throw std::invalid_argument("unknown lock mechanism '" + name + "'");
}

AdversaryKind parse_adversary(const std::string& name) {
  if (name == "transient") return AdversaryKind::kTransientLeaver;
  if (name == "chase") return AdversaryKind::kRelocChase;
  if (name == "roving") return AdversaryKind::kRelocRoving;
  if (name == "none") return AdversaryKind::kNone;
  throw std::invalid_argument("unknown adversary '" + name + "'");
}

}  // namespace

exp::CampaignSpec make_fire_alarm_campaign(const FireAlarmCampaignOptions& options) {
  exp::CampaignSpec spec;
  spec.name = "sec25_fire_alarm";
  spec.grid.axis("mode", {std::string("atomic"), std::string("interruptible")});
  spec.grid.axis("memory_mb", {std::int64_t{100}, std::int64_t{512}, std::int64_t{1024}});
  spec.trials_per_point = options.trials;
  spec.base_seed = options.seed;
  spec.threads = options.threads;
  // A trial simulates a full measurement with real hashing: chunky work
  // units, so shard small for load balance.
  spec.shard_size = 4;
  // Enough real blocks that one block measurement (~7 s / blocks at the
  // 1 GB calibration) stays under the 100 ms sample deadline, so the
  // interruptible mode's zero-miss claim is about the mechanism, not the
  // modeling granularity.
  static constexpr std::size_t kRealBlocks = 128;
  // All cells share one campaign-fixed firmware image (the sweep varies
  // timing, not contents), so the golden is digested exactly once and
  // every trial's verifier receives it by const reference.
  static constexpr std::uint64_t kProvisionSeed = 0xf12e0000;
  const auto golden = std::make_shared<const attest::GoldenMeasurement>(
      support::random_bytes(kProvisionSeed, kRealBlocks * kFireAlarmBlockSize),
      kFireAlarmBlockSize, crypto::HashKind::kSha256,
      support::to_bytes("fire-alarm-key"));
  const bool use_digest_cache = options.use_digest_cache;
  spec.trial = [golden, use_digest_cache](const exp::GridPoint& point,
                                          exp::TrialContext& ctx) {
    FireAlarmScenarioConfig config;
    config.mode = parse_mode(point.str("mode"));
    config.modeled_memory_bytes = static_cast<std::uint64_t>(point.i64("memory_mb")) << 20;
    config.real_blocks = kRealBlocks;
    config.seed = ctx.seed;
    config.provision_seed = kProvisionSeed;
    config.golden = golden;
    config.use_digest_cache = use_digest_cache;
    // The interesting regime is a fire during the measurement: place it
    // uniformly inside the (memory-size-dependent) measurement window,
    // approximated by the paper's ~7 s/GB calibration.
    const double mp_estimate_ms =
        7000.0 * static_cast<double>(point.i64("memory_mb")) / 1024.0;
    config.fire_after_mp_start =
        static_cast<sim::Duration>(ctx.rng.uniform() * mp_estimate_ms * sim::kMillisecond);
    exp::TrialOutput out;
    config.metrics = &out.metrics;
    const FireAlarmScenarioOutcome outcome = run_fire_alarm_scenario(config);
    // Bernoulli channel: one attempt per executed sensor sample, success
    // when the sample missed its deadline (the paper's availability risk).
    out.successes = outcome.deadline_misses;
    out.attempts = outcome.samples_taken;
    out.value("alarm_latency_ms", sim::to_millis(outcome.alarm_latency));
    out.value("mp_duration_ms", sim::to_millis(outcome.measurement_duration));
    out.value("max_sample_delay_ms", sim::to_millis(outcome.max_sample_delay));
    out.value("attestation_ok", outcome.attestation_ok ? 1.0 : 0.0);
    return out;
  };
  // Section 2.5: atomic MP over ~1 GB delays the alarm by seconds;
  // interruptible MP never misses a sample deadline.
  spec.claims = [](const exp::CampaignResult& result) {
    std::vector<exp::Claim> claims;
    for (const auto& cell : result.cells) {
      const std::string at = cell.point.str("mode") + " @ " +
                             std::to_string(cell.point.i64("memory_mb")) + " MB";
      const auto& latency = cell.values.at("alarm_latency_ms");
      const auto& mp = cell.values.at("mp_duration_ms");
      if (cell.point.str("mode") == "interruptible") {
        claims.push_back(exp::claim(cell.successes == 0, "%s: zero deadline misses (%llu/%llu)",
                                    at.c_str(), static_cast<unsigned long long>(cell.successes),
                                    static_cast<unsigned long long>(cell.attempts)));
        claims.push_back(exp::claim(latency.max() < 1100.0,
                                    "%s: alarm latency bounded by ~1 sensor period (max %.0f ms)",
                                    at.c_str(), latency.max()));
      } else {
        // The paper's conflict needs the atomic measurement to outlast the
        // sensor period; below that (100 MB ~ 0.7 s) every sample can still
        // land between measurements.
        if (mp.mean() > 1100.0) {
          claims.push_back(exp::claim(cell.successes > 0 && latency.max() > 1000.0,
                                      "%s: misses occur (rate %.3g) and alarm can wait for t_e",
                                      at.c_str(), cell.success_rate));
        }
        claims.push_back(exp::claim(latency.max() < mp.max() + 1100.0,
                                    "%s: alarm latency bounded by the measurement tail",
                                    at.c_str()));
      }
      const auto& attested = cell.values.at("attestation_ok");
      claims.push_back(exp::claim(attested.mean() == 1.0 && attested.min() == 1.0,
                                  "%s: every measurement verifies", at.c_str()));
    }
    return claims;
  };
  return spec;
}

exp::CampaignSpec make_lock_matrix_campaign(const LockMatrixCampaignOptions& options) {
  exp::CampaignSpec spec;
  spec.name = "lock_matrix";
  std::vector<exp::ParamValue> mechanisms;
  for (locking::LockMechanism mechanism : locking::kAllLockMechanisms) {
    mechanisms.emplace_back(locking::lock_mechanism_name(mechanism));
  }
  spec.grid.axis("lock", std::move(mechanisms));
  spec.grid.axis("adversary",
                 {std::string("transient"), std::string("chase"), std::string("roving")});
  spec.trials_per_point = options.trials;
  spec.base_seed = options.seed;
  spec.threads = options.threads;
  spec.shard_size = 4;
  spec.trial = [](const exp::GridPoint& point, exp::TrialContext& ctx) {
    LockScenarioConfig config;
    config.blocks = 32;
    config.block_size = 512;
    config.lock = parse_lock(point.str("lock"));
    config.adversary = parse_adversary(point.str("adversary"));
    config.writer_enabled = true;
    config.seed = ctx.seed;
    const LockScenarioOutcome outcome = run_lock_scenario(config);
    exp::TrialOutput out;
    out.bernoulli(outcome.detected);
    out.value("writer_availability", outcome.writer_availability);
    out.value("measurement_ms", sim::to_millis(outcome.measurement_duration));
    out.value("malware_blocked_actions",
              static_cast<double>(outcome.malware_blocked_actions));
    return out;
  };
  return spec;
}

exp::CampaignSpec make_measurement_cache_campaign(
    const MeasurementCacheCampaignOptions& options) {
  exp::CampaignSpec spec;
  spec.name = "measurement_cache";
  spec.grid.axis("dirty_pct", {std::int64_t{0}, std::int64_t{5}, std::int64_t{10},
                               std::int64_t{25}, std::int64_t{50}, std::int64_t{100}});
  spec.trials_per_point = options.trials;
  spec.base_seed = options.seed;
  spec.threads = options.threads;
  spec.shard_size = 8;
  spec.trial = [](const exp::GridPoint& point, exp::TrialContext& ctx) {
    constexpr std::size_t kBlocks = 64;
    constexpr std::size_t kBlockSize = 1024;
    sim::DeviceMemory memory(kBlocks * kBlockSize, kBlockSize);
    memory.load(support::random_bytes(0xca11 + ctx.seed, memory.size()));
    const support::Bytes key = support::to_bytes("measurement-cache-key");

    attest::DigestCache cache;
    cache.resize(kBlocks);
    exp::TrialOutput out;

    const auto measure = [&](attest::DigestCache* c, std::uint64_t counter) {
      attest::Measurement m(memory, crypto::HashKind::kSha256, key,
                            attest::MeasurementContext{"prv-cache", {}, counter});
      m.set_digest_cache(c);
      for (std::size_t b = 0; b < kBlocks; ++b) m.visit_block(b, /*now=*/0);
      return m.finalize();
    };

    measure(&cache, /*counter=*/1);  // warm: every block is a miss+store

    // Dirty a deterministic random subset of blocks (partial Fisher-Yates).
    const std::size_t dirty =
        kBlocks * static_cast<std::size_t>(point.i64("dirty_pct")) / 100;
    std::vector<std::size_t> order(kBlocks);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = 0; i < dirty; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(ctx.rng.below(kBlocks - i));
      std::swap(order[i], order[j]);
      const support::Bytes patch{static_cast<std::uint8_t>(ctx.rng.below(256))};
      memory.write(order[i] * kBlockSize, patch, /*now=*/1, sim::Actor::kApplication);
    }

    const std::uint64_t hits_before = cache.hits();
    const support::Bytes cached = measure(&cache, /*counter=*/2);
    const support::Bytes uncached = measure(nullptr, /*counter=*/2);
    const std::uint64_t round_hits = cache.hits() - hits_before;
    attest::export_metrics(out.metrics, cache);

    // The whole point: cache hits change nothing observable.
    out.bernoulli(cached == uncached);
    out.value("cache_hits", static_cast<double>(round_hits));
    out.value("expected_clean", static_cast<double>(kBlocks - dirty));
    out.value("hit_rate", static_cast<double>(round_hits) / kBlocks);
    return out;
  };
  // Cached and uncached measurements must be byte-identical in every
  // single trial — anything less is a correctness bug, not noise.
  spec.claims = [](const exp::CampaignResult& result) {
    std::vector<exp::Claim> claims = exp::claim_each_cell(
        result, "cached == uncached in every trial",
        [](const exp::CellResult& c) { return c.successes == c.attempts; });
    for (exp::Claim& c : exp::claim_each_cell(
             result, "every clean block served from cache", [](const exp::CellResult& c) {
               return c.values.at("cache_hits").mean() >= c.values.at("expected_clean").mean();
             })) {
      claims.push_back(std::move(c));
    }
    return claims;
  };
  return spec;
}

exp::CampaignSpec make_mtree_campaign(const MtreeCampaignOptions& options) {
  exp::CampaignSpec spec;
  spec.name = "mtree";
  spec.grid.axis("dirty_pct", {std::int64_t{0}, std::int64_t{1}, std::int64_t{10}});
  spec.grid.axis("infected", {std::int64_t{0}, std::int64_t{1}});
  spec.trials_per_point = options.trials;
  spec.base_seed = options.seed;
  spec.threads = options.threads;
  spec.shard_size = 8;
  spec.trial = [](const exp::GridPoint& point, exp::TrialContext& ctx) {
    constexpr std::size_t kBlocks = 64;
    constexpr std::size_t kBlockSize = 1024;
    constexpr std::size_t kInfectedFirst = kBlocks / 2;
    constexpr std::size_t kInfectedCount = 2;
    const support::Bytes key = support::to_bytes("mtree-campaign-key");

    sim::Simulator simulator;
    simulator.set_journal(ctx.journal);
    sim::Device device(simulator, sim::DeviceConfig{"dev-mtree", kBlocks * kBlockSize,
                                                    kBlockSize, key});
    const support::Bytes image =
        support::random_bytes(0x7ee00000 + ctx.seed, kBlocks * kBlockSize);
    device.memory().load(image);
    attest::Verifier verifier(crypto::HashKind::kSha256, key, image, kBlockSize);

    attest::ProverConfig config;
    config.mode = attest::ExecutionMode::kAtomic;
    config.use_merkle_tree = true;
    attest::AttestationProcess mp(device, config);
    mp.prime_tree();

    exp::TrialOutput out;

    // Healthy churn: rewrite dirty_pct% of the blocks with their *own*
    // bytes, at least one block for a nonzero percentage (1% of 64 blocks
    // rounds down to none).  Generations bump and the tree re-hashes those
    // leaves, but every digest is unchanged, so this must stay Verified.
    sim::DeviceMemory& memory = device.memory();
    const std::size_t dirty_pct = static_cast<std::size_t>(point.i64("dirty_pct"));
    const std::size_t dirty =
        dirty_pct == 0 ? 0 : std::max<std::size_t>(1, kBlocks * dirty_pct / 100);
    std::vector<std::size_t> order(kBlocks);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = 0; i < dirty; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(ctx.rng.below(kBlocks - i));
      std::swap(order[i], order[j]);
      const support::ByteView view = memory.block_view(order[i]);
      const support::Bytes same(view.begin(), view.end());
      memory.write(order[i] * kBlockSize, same, /*now=*/0, sim::Actor::kApplication);
    }

    const bool infected = point.i64("infected") != 0;
    if (infected) {
      for (std::size_t b = kInfectedFirst; b < kInfectedFirst + kInfectedCount; ++b) {
        const support::Bytes patch{
            static_cast<std::uint8_t>(memory.block_view(b)[0] ^ 0xff)};
        memory.write(b * kBlockSize, patch, /*now=*/0, sim::Actor::kMalware);
      }
    }

    attest::AttestationResult result;
    bool done = false;
    mp.start(attest::MeasurementContext{device.id(), verifier.issue_challenge(), 1},
             [&](attest::AttestationResult r) {
               result = std::move(r);
               done = true;
             });
    simulator.run();
    out.require(done, "tree-mode attestation round never completed");

    const attest::VerifyOutcome verdict = verifier.verify(result.report);
    out.require(verdict.used_tree, "report did not carry a Merkle root");

    // Bernoulli channel: the verdict is exactly right for this cell.
    const bool exact_localization =
        verdict.localized.size() == 1 &&
        verdict.localized.front().first == kInfectedFirst &&
        verdict.localized.front().count == kInfectedCount;
    const bool correct =
        infected ? (!verdict.ok() && exact_localization) : verdict.ok();
    out.bernoulli(correct);
    out.value("verified", verdict.ok() ? 1.0 : 0.0);
    out.value("localized_ranges", static_cast<double>(verdict.localized.size()));
    out.value("proof_leaves", [&] {
      std::size_t leaves = 0;
      for (const auto& proof : result.report.proofs) leaves += proof.leaf_count;
      return static_cast<double>(leaves);
    }());
    out.value("dirty_blocks", static_cast<double>(dirty));
    return out;
  };
  // Verdict correctness is per-trial exact: healthy cells must verify and
  // infected cells must localize exactly the infected range.
  spec.claims = [](const exp::CampaignResult& result) {
    return exp::claim_each_cell(
        result, "exact verdict/localization in every trial",
        [](const exp::CellResult& c) { return c.successes == c.attempts; });
  };
  return spec;
}

exp::CampaignSpec make_network_reliability_campaign(
    const NetworkReliabilityCampaignOptions& options) {
  exp::CampaignSpec spec;
  spec.name = "network";
  spec.grid.axis("drop_pct", {std::int64_t{0}, std::int64_t{10}, std::int64_t{30}});
  spec.grid.axis("max_attempts", {std::int64_t{1}, std::int64_t{3}, std::int64_t{6}});
  spec.grid.axis("timeout_ms", {std::int64_t{60}, std::int64_t{250}});
  spec.trials_per_point = options.trials;
  spec.base_seed = options.seed;
  spec.threads = options.threads;
  spec.shard_size = 8;
  const std::size_t rounds = options.rounds;
  spec.trial = [rounds](const exp::GridPoint& point, exp::TrialContext& ctx) {
    NetworkScenarioConfig config;
    config.rounds = rounds;
    config.drop_probability = static_cast<double>(point.i64("drop_pct")) / 100.0;
    // Mild background faults so the duplicate/replay/corrupt machinery is
    // exercised in every cell, not just the ones the axes sweep.
    config.duplicate_probability = 0.05;
    config.reorder_probability = 0.05;
    config.corrupt_probability = 0.02;
    config.session.max_attempts = static_cast<std::size_t>(point.i64("max_attempts"));
    config.session.response_timeout =
        static_cast<sim::Duration>(point.i64("timeout_ms")) * sim::kMillisecond;
    config.session.backoff_base = 20 * sim::kMillisecond;
    config.seed = ctx.seed;
    exp::TrialOutput out;
    config.metrics = &out.metrics;
    config.journal = ctx.journal;
    const NetworkScenarioOutcome outcome = run_network_scenario(config);
    out.health.merge(outcome.health);
    // The acceptance invariant: zero leaked done callbacks, asserted per
    // trial so a hang fails the whole campaign.
    out.require(outcome.all_resolved,
                "attestation round leaked its done callback");
    // Bernoulli channel: per-round false positive — this prover is
    // healthy, so any terminal outcome but Verified misjudges it.
    out.successes = outcome.rounds_resolved - outcome.verified;
    out.attempts = outcome.rounds_resolved;
    out.value("resolved", outcome.all_resolved ? 1.0 : 0.0);
    out.value("attempts_per_round",
              static_cast<double>(outcome.total_attempts) /
                  static_cast<double>(outcome.rounds_resolved));
    out.value("retries", static_cast<double>(outcome.retries));
    out.value("retry_backoff_ms", sim::to_millis(outcome.total_backoff));
    out.value("mp_ms", sim::to_millis(outcome.total_measure_time));
    out.value("wasted_mp_ms", sim::to_millis(outcome.wasted_measure_time));
    out.value("round_latency_ms",
              sim::to_millis(outcome.total_round_latency) /
                  static_cast<double>(outcome.rounds_resolved));
    out.value("max_round_latency_ms", sim::to_millis(outcome.max_round_latency));
    out.value("late_reports", static_cast<double>(outcome.late_reports));
    // Which trial campaign_runner --journal-out should replay: the lowest
    // trial index whose prover got misjudged (min() folds are exact, so
    // the pick is identical for every thread count).
    const bool misjudged = outcome.rounds_resolved != outcome.verified;
    out.value("first_misjudge_trial",
              misjudged ? static_cast<double>(ctx.trial_index) : exp::kNoMisjudgeTrial);
    out.value("link_drop_rate",
              outcome.links.sent == 0
                  ? 0.0
                  : static_cast<double>(outcome.links.dropped) /
                        static_cast<double>(outcome.links.sent));
    return out;
  };
  // The per-trial require() already threw on a leaked round; the claim
  // shows the invariant in the output even when every trial passed.
  spec.claims = [](const exp::CampaignResult& result) {
    return exp::claim_each_cell(result, "every round resolved", [](const exp::CellResult& c) {
      const auto it = c.values.find("resolved");
      return it != c.values.end() && it->second.mean() == 1.0;
    });
  };
  return spec;
}

}  // namespace rasc::apps
