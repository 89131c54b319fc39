#pragma once
/// \file report.hpp
/// Campaign result serialization.  Reuses the obs JSON machinery and the
/// BENCH_<name>.json artifact convention from PR 1, so campaign output
/// lands next to single-run bench output and diffs across PRs the same
/// way.  Execution facts (thread count, wall time) are intentionally NOT
/// serialized: the artifact is a pure function of (spec, base_seed).

#include <string>

#include "src/exp/campaign.hpp"
#include "src/support/table.hpp"

namespace rasc::exp {

/// {"bench": <name>, "campaign": {"base_seed", "trials_per_point",
///  "cells": [{"grid_index","params","trials","successes","attempts",
///             "success_rate","wilson_lower","wilson_upper",
///             "values":{name:{count,mean,stddev,stderr,min,max}},
///             "metrics": <registry JSON>}]}}
std::string campaign_json(const CampaignResult& result);

/// Write campaign_json() to `<dir>/BENCH_<result.name>.json` (dir "" =
/// cwd).  Returns the path written, or "" on I/O failure.
std::string write_campaign_json(const CampaignResult& result, const std::string& dir = "");

/// Evaluate spec.claims on `result` and print each as "  [ok] label" or
/// "  [FAIL] label".  True iff every claim holds (also when there are
/// none); campaign_runner exits 1 on false.
bool print_claims(const CampaignSpec& spec, const CampaignResult& result);

/// Human-readable per-cell summary: one row per grid cell with the
/// Bernoulli channel and any named value means.
support::Table campaign_table(const CampaignResult& result);

}  // namespace rasc::exp
