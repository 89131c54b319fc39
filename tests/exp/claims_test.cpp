/// Paper claims live in the campaign specs (CampaignSpec::claims).  Each
/// family is pinned two ways: the default spec passes at a small trial
/// count, and a doctored aggregate that breaks the claim fails under the
/// claim's label — print_claims then returns false, which is what makes
/// campaign_runner exit 1.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/apps/campaign.hpp"
#include "src/exp/report.hpp"
#include "src/fleet/campaign.hpp"
#include "src/smarm/campaign.hpp"

namespace rasc::exp {
namespace {

std::vector<std::string> failing(const CampaignSpec& spec, const CampaignResult& result) {
  std::vector<std::string> labels;
  for (const Claim& c : spec.claims(result)) {
    if (!c.ok) labels.push_back(c.label);
  }
  return labels;
}

/// Every claim of `spec` holds on its own run; `doctor` applied to cell
/// `cell` then breaks exactly the claims whose labels start with `labels`.
void expect_breaks(const CampaignSpec& spec, const std::string& cell,
                   const std::function<void(CellResult&)>& doctor,
                   const std::vector<std::string>& labels) {
  CampaignResult result = run_campaign(spec);
  ASSERT_FALSE(spec.claims(result).empty());
  ASSERT_EQ(failing(spec, result), std::vector<std::string>{});
  for (CellResult& c : result.cells) {
    if (c.point.label() == cell) doctor(c);
  }
  const std::vector<std::string> failed = failing(spec, result);
  ASSERT_EQ(failed.size(), labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(failed[i].rfind(labels[i], 0), 0u) << failed[i];
  }
  EXPECT_FALSE(print_claims(spec, result));
}

TEST(Claims, FireAlarmInterruptibleMissFails) {
  expect_breaks(apps::make_fire_alarm_campaign({.trials = 8}),
                "mode=interruptible memory_mb=512", [](CellResult& c) { c.successes = 1; },
                {"interruptible @ 512 MB: zero deadline misses (1/"});
}

TEST(Claims, SmarmEscapeAnalyticOutsideIntervalFails) {
  expect_breaks(smarm::make_escape_campaign({.trials = 64}), "rounds=1 blocks=1024",
                [](CellResult& c) { c.successes = c.attempts; },
                {"rounds=1 blocks=1024: empirical", "1 round @ n=1024: escape ~ e^-1"});
}

TEST(Claims, SmarmThirteenRoundEscapeFails) {
  expect_breaks(smarm::make_escape_campaign({.trials = 64}), "rounds=13 blocks=8",
                [](CellResult& c) {
                  c.successes = 1;
                  c.success_rate = 1.0 / static_cast<double>(c.attempts);
                },
                {"rounds=13 blocks=8: empirical", "13 rounds @ n=8: empirical escape"});
}

TEST(Claims, FullStackSmarmAnalyticOutsideIntervalFails) {
  expect_breaks(smarm::make_fullstack_escape_campaign({.trials = 32}), "blocks=8",
                [](CellResult& c) { c.successes = 0; }, {"full stack n=8: empirical"});
}

TEST(Claims, MeasurementCacheDivergenceAndMissFail) {
  const CampaignSpec spec = apps::make_measurement_cache_campaign({.trials = 4});
  expect_breaks(spec, "dirty_pct=5", [](CellResult& c) { --c.successes; },
                {"dirty_pct=5: cached == uncached in every trial"});
  expect_breaks(spec, "dirty_pct=5", [](CellResult& c) { c.values["cache_hits"].add(0.0); },
                {"dirty_pct=5: every clean block served from cache"});
}

TEST(Claims, MtreeWrongLocalizationFails) {
  expect_breaks(apps::make_mtree_campaign({.trials = 4}), "dirty_pct=1 infected=1",
                [](CellResult& c) { --c.successes; },
                {"dirty_pct=1 infected=1: exact verdict/localization"});
}

TEST(Claims, NetworkUnresolvedRoundFails) {
  expect_breaks(apps::make_network_reliability_campaign({.trials = 4}),
                "drop_pct=30 max_attempts=1 timeout_ms=60",
                [](CellResult& c) { c.values["resolved"].add(0.0); },
                {"drop_pct=30 max_attempts=1 timeout_ms=60: every round resolved"});
}

TEST(Claims, FleetUnresolvedRoundFails) {
  CampaignSpec spec = fleet::make_fleet_scale_campaign({.trials = 1});
  spec.grid.set_axis("devices", {std::int64_t{64}});
  expect_breaks(spec, "devices=64 drop_pct=20 stagger=uniform",
                [](CellResult& c) { c.values["resolved"].add(0.0); },
                {"devices=64 drop_pct=20 stagger=uniform: every fleet round resolved"});
}

}  // namespace
}  // namespace rasc::exp
