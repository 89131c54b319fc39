/// Campaign CLI: run any registered experiment campaign with overridable
/// grid, trial count, thread count and seed, check the campaign's paper
/// claims, and write the aggregate as BENCH_<name>.json.  The JSON artifact
/// is a pure function of (campaign, grid, trials, seed) — bit-identical
/// across thread counts — while wall time and threads are reported on
/// stdout only.  Exits 1 if a claim fails, 2 on malformed input.
///
///   campaign_runner --campaign smarm_escape --trials 1000 --threads 8
///   campaign_runner --campaign sec25_fire_alarm --grid "memory_mb=1024"
///   campaign_runner --list

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include "src/apps/campaign.hpp"
#include "src/exp/report.hpp"
#include "src/exp/seeding.hpp"
#include "src/fleet/campaign.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/timeline.hpp"
#include "src/smarm/campaign.hpp"

using namespace rasc;

namespace {

struct Options {
  std::string campaign = "smarm_escape";
  std::string grid_override;
  std::string out_dir;
  std::string journal_dir;  ///< --journal-out: flight-recorder replays
  std::size_t trials = 0;  // 0 = campaign default
  std::size_t threads = 0;
  std::uint64_t seed = 1;
};

using Builder = std::function<exp::CampaignSpec(const Options&)>;

/// A factory with the CLI's trials (when given), seed and threads applied
/// over `defaults`.
template <class CampaignOptions>
Builder with_cli(exp::CampaignSpec (*make)(const CampaignOptions&),
                 CampaignOptions defaults = {}) {
  return [make, defaults](const Options& cli) {
    CampaignOptions o = defaults;
    if (cli.trials != 0) o.trials = cli.trials;
    o.seed = cli.seed;
    o.threads = cli.threads;
    return make(o);
  };
}

struct Campaign {
  const char* name;
  const char* summary;
  Builder build;
};

const Campaign kCampaigns[] = {
    {"smarm_escape", "abstract SMARM game, rounds x blocks sweep",
     with_cli(smarm::make_escape_campaign)},
    {"smarm_escape_fullstack", "device sim + verifier, blocks sweep",
     with_cli(smarm::make_fullstack_escape_campaign, {.trials = 200})},
    {"sec25_fire_alarm", "fire-alarm deadline misses, mode x memory sweep",
     with_cli(apps::make_fire_alarm_campaign)},
    {"lock_matrix", "Table 1 mechanisms x adversaries detection rates",
     with_cli(apps::make_lock_matrix_campaign)},
    {"measurement_cache", "digest-cache identity + hit rate, dirty-% sweep",
     with_cli(apps::make_measurement_cache_campaign)},
    {"mtree", "Merkle-tree prover, dirty-% x infected sweep",
     with_cli(apps::make_mtree_campaign)},
    {"network_reliability", "lossy-link RA sessions, drop x retries x timeout",
     with_cli(apps::make_network_reliability_campaign)},
    {"fleet_scale", "fleet verifier, devices x drop x stagger sweep",
     with_cli(fleet::make_fleet_scale_campaign)},
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--campaign NAME] [--grid \"axis=v1,v2;...\"] [--trials N]\n"
      "          [--threads N] [--seed S] [--out DIR] [--journal-out DIR] [--list]\n\n"
      "--journal-out DIR: per cell, re-run the first misjudged trial (or\n"
      "trial 0) with the flight recorder attached, write\n"
      "JOURNAL_<name>_<grid_index>.ndjson plus its Chrome trace\n"
      "JOURNAL_<name>_<grid_index>.trace.json and print a timeline.  The\n"
      "replay is seeded from the campaign coordinates, so the artifacts are\n"
      "byte-identical for any --threads.  Campaigns whose trials record no\n"
      "journal (all but mtree, network_reliability and fleet_scale) ignore\n"
      "it.\n\n"
      "campaigns:\n",
      argv0);
  for (const Campaign& c : kCampaigns) std::printf("  %-23s %s\n", c.name, c.summary);
}

/// A numeric flag value, parsed completely: digits only, no sign, no
/// trailing characters, no overflow.  Anything else exits 2.
std::uint64_t parse_count(const std::string& flag, const char* text) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, error] = std::from_chars(text, end, value);
  if (error != std::errc() || ptr != end) {
    std::fprintf(stderr, "%s: '%s' is not a non-negative integer\n", flag.c_str(), text);
    std::exit(2);
  }
  return value;
}

/// Replay one trial per cell with the flight recorder in its context and
/// write its journal as JOURNAL_<name>_<grid_index>.ndjson plus the Chrome
/// trace derived from it (.trace.json beside it), printing the problem
/// rounds' explain timelines.  Journals stay off during the campaign
/// itself; the replay re-derives the trial's seed from its (base_seed,
/// grid_index, trial_index) coordinates and calls the spec's own trial,
/// so it is the same simulation event-for-event and the artifacts do not
/// depend on the campaign's thread count.
bool write_journals(const exp::CampaignSpec& spec, const exp::CampaignResult& result,
                    const std::string& dir) {
  for (const auto& cell : result.cells) {
    std::size_t trial = 0;
    if (const auto it = cell.values.find("first_misjudge_trial");
        it != cell.values.end() && it->second.min() < exp::kNoMisjudgeTrial) {
      trial = static_cast<std::size_t>(it->second.min());
    }
    const std::uint64_t seed =
        exp::derive_trial_seed(result.base_seed, cell.grid_index, trial);
    obs::EventJournal journal;
    exp::TrialContext ctx{cell.grid_index, trial, seed, support::Xoshiro256(seed), &journal};
    (void)spec.trial(cell.point, ctx);
    if (journal.size() == 0) {
      std::fprintf(stderr, "campaign_runner: %s records no journal; ignoring --journal-out\n",
                   spec.name.c_str());
      return true;
    }
    const std::string stem =
        dir + "JOURNAL_" + spec.name + "_" + std::to_string(cell.grid_index);
    if (!journal.write_ndjson(stem + ".ndjson") ||
        !obs::write_chrome_json(journal, stem + ".trace.json")) {
      std::fprintf(stderr, "campaign_runner: cannot write '%s.*'\n", stem.c_str());
      return false;
    }
    std::printf("\n=== journal %s.ndjson: %s, trial %zu (%zu events) ===\n%s",
                stem.c_str(), cell.point.label().c_str(), trial, journal.size(),
                obs::explain(journal, /*only_problem_rounds=*/true).c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--campaign") {
      options.campaign = next();
    } else if (arg == "--grid") {
      options.grid_override = next();
    } else if (arg == "--trials") {
      options.trials = parse_count(arg, next());
    } else if (arg == "--threads") {
      options.threads = parse_count(arg, next());
    } else if (arg == "--seed") {
      options.seed = parse_count(arg, next());
    } else if (arg == "--out") {
      options.out_dir = next();
    } else if (arg == "--journal-out") {
      options.journal_dir = next();
    } else if (arg == "--list" || arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  try {
    const Campaign* campaign = nullptr;
    for (const Campaign& c : kCampaigns) {
      if (options.campaign == c.name) campaign = &c;
    }
    if (campaign == nullptr) {
      throw std::invalid_argument("unknown campaign '" + options.campaign + "'");
    }
    exp::CampaignSpec spec = campaign->build(options);
    for (auto& axis : exp::parse_grid_spec(options.grid_override)) {
      spec.grid.set_axis(axis.name, std::move(axis.values));
    }
    // A missing destination fails before any trial runs; the writes after
    // the run still check for I/O errors.
    if (!options.out_dir.empty() && !std::filesystem::is_directory(options.out_dir)) {
      std::fprintf(stderr, "campaign_runner: cannot write BENCH json under '%s'\n",
                   options.out_dir.c_str());
      return 2;
    }
    if (!options.journal_dir.empty() &&
        !std::filesystem::is_directory(options.journal_dir)) {
      std::fprintf(stderr, "campaign_runner: cannot write journals under '%s'\n",
                   options.journal_dir.c_str());
      return 2;
    }

    std::printf("=== campaign %s: %zu cells x %zu trials (seed %llu) ===\n",
                spec.name.c_str(), spec.grid.size(), spec.trials_per_point,
                static_cast<unsigned long long>(spec.base_seed));
    const exp::CampaignResult result = exp::run_campaign(spec);
    std::printf("%s\n", exp::campaign_table(result).render().c_str());
    std::printf("ran on %zu thread(s) in %.3f s\n", result.threads_used,
                result.wall_seconds);
    const bool ok = exp::print_claims(spec, result);

    if (!options.journal_dir.empty() &&
        !write_journals(spec, result,
                        options.journal_dir == "." ? "" : options.journal_dir + "/")) {
      return 2;
    }

    const std::string path = exp::write_campaign_json(result, options.out_dir);
    if (!path.empty()) {
      std::printf("machine-readable results: %s\n", path.c_str());
    } else if (!options.out_dir.empty()) {
      std::fprintf(stderr, "campaign_runner: cannot write BENCH json under '%s'\n",
                   options.out_dir.c_str());
      return 2;
    }

    if (!ok) {
      std::fprintf(stderr, "FAIL: some paper claims do not hold\n");
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_runner: %s\n", e.what());
    return 2;
  }
}
