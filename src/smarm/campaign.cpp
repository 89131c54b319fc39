#include "src/smarm/campaign.hpp"

#include <cmath>
#include <map>
#include <memory>

#include "src/smarm/escape.hpp"
#include "src/smarm/runner.hpp"

namespace rasc::smarm {

namespace {

/// The closed-form check: `analytic` lies inside the cell's 99.9% Wilson
/// interval (exp::kClaimZ), labelled "<what> empirical E vs analytic A".
exp::Claim analytic_in_interval(const exp::CellResult& cell, double analytic,
                                const std::string& what) {
  const exp::WilsonInterval wide = exp::wilson_interval(cell.successes, cell.attempts,
                                                        exp::kClaimZ);
  return exp::claim(wide.contains(analytic),
                    "%s empirical %.4g vs analytic %.4g, 99.9%% CI [%.4g, %.4g]", what.c_str(),
                    cell.success_rate, analytic, wide.lower, wide.upper);
}

}  // namespace

exp::CampaignSpec make_escape_campaign(const EscapeCampaignOptions& options) {
  exp::CampaignSpec spec;
  spec.name = "smarm_escape";
  // blocks=8 is where the paper's "13 checks push escape below 1e-6"
  // holds exactly ((1-1/8)^(8*13) ~ 9.3e-7); the larger counts trace the
  // (1-1/n)^n -> e^-1 asymptote (e^-13 ~ 2.3e-6, just above 1e-6).
  spec.grid.axis("rounds", {std::int64_t{1}, std::int64_t{2}, std::int64_t{3},
                            std::int64_t{5}, std::int64_t{8}, std::int64_t{13}});
  spec.grid.axis("blocks",
                 {std::int64_t{8}, std::int64_t{16}, std::int64_t{64}, std::int64_t{1024}});
  spec.trials_per_point = options.trials;
  spec.base_seed = options.seed;
  spec.threads = options.threads;
  spec.trial = [](const exp::GridPoint& point, exp::TrialContext& ctx) {
    const auto rounds = static_cast<std::size_t>(point.i64("rounds"));
    const auto blocks = static_cast<std::size_t>(point.i64("blocks"));
    exp::TrialOutput out;
    out.bernoulli(play_escape_game(blocks, rounds, ctx.rng));
    return out;
  };
  spec.claims = [](const exp::CampaignResult& result) {
    std::vector<exp::Claim> claims;
    for (const auto& cell : result.cells) {
      const auto rounds = static_cast<std::size_t>(cell.point.i64("rounds"));
      const auto blocks = static_cast<std::size_t>(cell.point.i64("blocks"));
      claims.push_back(analytic_in_interval(cell, multi_round_escape(blocks, rounds),
                                            cell.point.label() + ":"));
    }
    // The paper's two headline points, checked when the grid has them.
    if (const auto* one_round = result.find_cell("rounds=1 blocks=1024")) {
      claims.push_back(analytic_in_interval(*one_round, std::exp(-1.0),
                                            "1 round @ n=1024: escape ~ e^-1,"));
    }
    claims.push_back(exp::claim(multi_round_escape(8, 13) < 1e-6,
                                "13 rounds @ n=8: closed form below 1e-6"));
    if (const auto* thirteen = result.find_cell("rounds=13 blocks=8")) {
      claims.push_back(exp::claim(
          thirteen->success_rate <= 1e-6 && thirteen->ci.lower <= 1e-6,
          "13 rounds @ n=8: empirical escape below 1e-6 within its CI"));
    }
    return claims;
  };
  return spec;
}

exp::CampaignSpec make_fullstack_escape_campaign(const EscapeCampaignOptions& options) {
  exp::CampaignSpec spec;
  spec.name = "smarm_escape_fullstack";
  const std::vector<std::int64_t> block_counts{8, 12, 16};
  spec.grid.axis("blocks", {std::int64_t{8}, std::int64_t{12}, std::int64_t{16}});
  spec.trials_per_point = options.trials;
  spec.base_seed = options.seed;
  spec.threads = options.threads;
  // Device simulation is ~ms per trial; keep work units small enough that
  // the pool load-balances even for modest trial counts.
  spec.shard_size = 8;
  // One firmware image and one pre-digested GoldenMeasurement per cell
  // (blocks value), shared by const reference across all trial workers —
  // the verifier no longer rehashes the golden image once per trial.
  constexpr std::size_t kBlockSize = 256;
  constexpr std::uint64_t kProvisionSeedBase = 0xf1f00000;
  auto goldens = std::make_shared<
      std::map<std::int64_t, std::shared_ptr<const attest::GoldenMeasurement>>>();
  for (const std::int64_t blocks : block_counts) {
    const auto image = support::random_bytes(
        kProvisionSeedBase + static_cast<std::uint64_t>(blocks),
        static_cast<std::size_t>(blocks) * kBlockSize);
    (*goldens)[blocks] = std::make_shared<const attest::GoldenMeasurement>(
        image, kBlockSize, crypto::HashKind::kSha256,
        support::to_bytes("smarm-shared-key"));
  }
  const bool use_digest_cache = options.use_digest_cache;
  spec.trial = [goldens, use_digest_cache](const exp::GridPoint& point,
                                           exp::TrialContext& ctx) {
    RunnerConfig config;
    config.blocks = static_cast<std::size_t>(point.i64("blocks"));
    config.block_size = kBlockSize;
    config.rounds = 1;
    config.seed = ctx.seed;
    config.use_digest_cache = use_digest_cache;
    config.provision_seed =
        kProvisionSeedBase + static_cast<std::uint64_t>(point.i64("blocks"));
    config.golden = goldens->at(point.i64("blocks"));
    exp::TrialOutput out;
    config.metrics = &out.metrics;
    const RunnerOutcome outcome = run_rounds(config);
    out.bernoulli(outcome.rounds_run == 1 && outcome.detections == 0);
    out.value("relocations", static_cast<double>(outcome.malware_relocations));
    return out;
  };
  spec.claims = [](const exp::CampaignResult& result) {
    std::vector<exp::Claim> claims;
    for (const auto& cell : result.cells) {
      const auto blocks = static_cast<std::size_t>(cell.point.i64("blocks"));
      claims.push_back(analytic_in_interval(cell, single_round_escape(blocks),
                                            "full stack n=" + std::to_string(blocks) + ":"));
    }
    return claims;
  };
  return spec;
}

}  // namespace rasc::smarm
