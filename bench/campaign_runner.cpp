/// Campaign CLI: run any registered experiment campaign with overridable
/// grid, trial count, thread count and seed, and write the aggregate as
/// BENCH_<name>.json.  The JSON artifact is a pure function of
/// (campaign, grid, trials, seed) — bit-identical across thread counts —
/// while wall time and threads are reported on stdout only.
///
///   campaign_runner --campaign smarm_escape --trials 1000 --threads 8
///   campaign_runner --campaign sec25_fire_alarm --grid "memory_mb=1024"
///   campaign_runner --list

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/apps/campaign.hpp"
#include "src/exp/report.hpp"
#include "src/exp/seeding.hpp"
#include "src/fleet/campaign.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/timeline.hpp"
#include "src/smarm/campaign.hpp"
#include "src/smarm/escape.hpp"

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
  bool list = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--campaign NAME] [--grid \"axis=v1,v2;...\"] [--trials N]\n"
      "          [--threads N] [--seed S] [--out DIR] [--journal-out DIR] [--list]\n\n"
      "--journal-out DIR (network_reliability and fleet_scale): per cell,\n"
      "re-run the first misjudged trial (or trial 0) with the flight recorder\n"
      "attached, write JOURNAL_<name>_<grid_index>.ndjson plus its Chrome\n"
      "trace JOURNAL_<name>_<grid_index>.trace.json and print a timeline.\n"
      "The replay is seeded from the campaign coordinates, so the artifacts\n"
      "are byte-identical for any --threads.\n\n"
      "campaigns:\n"
      "  smarm_escape            abstract SMARM game, rounds x blocks sweep\n"
      "  smarm_escape_fullstack  device sim + verifier, blocks sweep\n"
      "  sec25_fire_alarm        fire-alarm deadline misses, mode x memory sweep\n"
      "  lock_matrix             Table 1 mechanisms x adversaries detection rates\n"
      "  measurement_cache       digest-cache identity + hit rate, dirty-%% sweep\n"
      "  mtree                   Merkle-tree prover, dirty-%% x infected sweep\n"
      "  network_reliability     lossy-link RA sessions, drop x retries x timeout\n"
      "  fleet_scale             fleet verifier, devices x drop x stagger sweep\n",
      argv0);
}

exp::CampaignSpec build_spec(const Options& options) {
  if (options.campaign == "smarm_escape") {
    smarm::EscapeCampaignOptions o;
    if (options.trials != 0) o.trials = options.trials;
    o.seed = options.seed;
    o.threads = options.threads;
    return smarm::make_escape_campaign(o);
  }
  if (options.campaign == "smarm_escape_fullstack") {
    smarm::EscapeCampaignOptions o;
    o.trials = options.trials != 0 ? options.trials : 200;
    o.seed = options.seed;
    o.threads = options.threads;
    return smarm::make_fullstack_escape_campaign(o);
  }
  if (options.campaign == "sec25_fire_alarm") {
    apps::FireAlarmCampaignOptions o;
    if (options.trials != 0) o.trials = options.trials;
    o.seed = options.seed;
    o.threads = options.threads;
    return apps::make_fire_alarm_campaign(o);
  }
  if (options.campaign == "lock_matrix") {
    apps::LockMatrixCampaignOptions o;
    if (options.trials != 0) o.trials = options.trials;
    o.seed = options.seed;
    o.threads = options.threads;
    return apps::make_lock_matrix_campaign(o);
  }
  if (options.campaign == "measurement_cache") {
    apps::MeasurementCacheCampaignOptions o;
    if (options.trials != 0) o.trials = options.trials;
    o.seed = options.seed;
    o.threads = options.threads;
    return apps::make_measurement_cache_campaign(o);
  }
  if (options.campaign == "mtree") {
    apps::MtreeCampaignOptions o;
    if (options.trials != 0) o.trials = options.trials;
    o.seed = options.seed;
    o.threads = options.threads;
    return apps::make_mtree_campaign(o);
  }
  if (options.campaign == "network_reliability") {
    apps::NetworkReliabilityCampaignOptions o;
    if (options.trials != 0) o.trials = options.trials;
    o.seed = options.seed;
    o.threads = options.threads;
    return apps::make_network_reliability_campaign(o);
  }
  if (options.campaign == "fleet_scale") {
    fleet::FleetScaleCampaignOptions o;
    if (options.trials != 0) o.trials = options.trials;
    o.seed = options.seed;
    o.threads = options.threads;
    return fleet::make_fleet_scale_campaign(o);
  }
  throw std::invalid_argument("unknown campaign '" + options.campaign + "'");
}

/// For the SMARM sweep, print empirical vs. closed-form escape rates and
/// whether the analytic value falls inside each cell's confidence
/// interval.  The pass/fail check widens to 99.9% (z = 3.29) so that a
/// sweep of ~24 simultaneous cells has a comfortable joint pass rate for
/// any seed; the reported JSON keeps the standard 95% interval.
bool check_smarm_cells(const exp::CampaignResult& result) {
  bool all_ok = true;
  std::printf("\n%-28s %-12s %-12s %-24s %s\n", "cell", "empirical", "analytic",
              "wilson 99.9% CI", "analytic in CI?");
  for (const auto& cell : result.cells) {
    const auto rounds = static_cast<std::size_t>(cell.point.i64("rounds"));
    const auto blocks = static_cast<std::size_t>(cell.point.i64("blocks"));
    const double analytic = smarm::multi_round_escape(blocks, rounds);
    const exp::WilsonInterval wide =
        exp::wilson_interval(cell.successes, cell.attempts, 3.290526731491926);
    const bool ok = wide.contains(analytic);
    all_ok = all_ok && ok;
    std::printf("%-28s %-12.4g %-12.4g [%-9.3g, %-9.3g] %s\n",
                cell.point.label().c_str(), cell.success_rate, analytic, wide.lower,
                wide.upper, ok ? "yes" : "NO");
  }
  return all_ok;
}

/// Write one replay's journal as JOURNAL_<name>_<grid_index>.ndjson plus
/// the Chrome trace derived from it (.trace.json beside it), and print
/// the problem rounds' explain timelines.
bool write_journal(const obs::EventJournal& journal, const std::string& dir,
                   const std::string& name, const exp::CellResult& cell,
                   std::size_t trial) {
  std::string stem = dir.empty() ? std::string() : dir + "/";
  stem += "JOURNAL_" + name + "_" + std::to_string(cell.grid_index);
  for (const std::string& path : {stem + ".ndjson", stem + ".trace.json"}) {
    const bool ok = path.ends_with(".ndjson") ? journal.write_ndjson(path)
                                              : obs::write_chrome_json(journal, path);
    if (!ok) {
      std::fprintf(stderr, "campaign_runner: cannot write '%s'\n", path.c_str());
      return false;
    }
  }
  std::printf("\n=== journal %s.ndjson: %s, trial %zu (%zu events) ===\n%s",
              stem.c_str(), cell.point.label().c_str(), trial, journal.size(),
              obs::explain(journal, /*only_problem_rounds=*/true).c_str());
  return true;
}

/// Replay one trial per cell of the network campaign with the flight
/// recorder attached and dump its journal (see write_journal).  Journals
/// stay off during the campaign itself (the trials above ran bare); the
/// replay re-derives the trial's seed from its (base_seed, grid_index,
/// trial_index) coordinates, so the re-run is the same simulation
/// event-for-event and the artifact does not depend on the campaign's
/// thread count.
bool write_network_journals(const exp::CampaignResult& result,
                            const std::string& dir) {
  const std::size_t rounds = apps::NetworkReliabilityCampaignOptions{}.rounds;
  bool ok = true;
  for (const auto& cell : result.cells) {
    // Replay the lowest misjudging trial; a cell where every round
    // verified replays trial 0 (still useful: retries/backoff show up).
    std::size_t trial = 0;
    if (const auto it = cell.values.find("first_misjudge_trial");
        it != cell.values.end() && it->second.min() < apps::kNoMisjudgeTrial) {
      trial = static_cast<std::size_t>(it->second.min());
    }
    const std::uint64_t trial_seed =
        exp::derive_trial_seed(result.base_seed, cell.grid_index, trial);
    apps::NetworkScenarioConfig config =
        apps::network_scenario_config(cell.point, trial_seed, rounds);
    obs::EventJournal journal;
    config.journal = &journal;
    (void)apps::run_network_scenario(config);
    ok = write_journal(journal, dir, "network", cell, trial) && ok;
  }
  return ok;
}

/// Fleet counterpart of write_network_journals: per cell, re-run the
/// lowest misjudging trial's whole fleet with the flight recorder
/// attached and dump its journal.  Only the problem rounds are explained
/// on stdout — a fleet journal holds every device's events, so the full
/// transcript would drown the interesting ones.
bool write_fleet_journals(const exp::CampaignResult& result,
                          const std::string& dir) {
  bool ok = true;
  for (const auto& cell : result.cells) {
    std::size_t trial = 0;
    if (const auto it = cell.values.find("first_misjudge_trial");
        it != cell.values.end() &&
        it->second.min() < fleet::kNoMisjudgeFleetTrial) {
      trial = static_cast<std::size_t>(it->second.min());
    }
    const std::uint64_t trial_seed =
        exp::derive_trial_seed(result.base_seed, cell.grid_index, trial);
    fleet::FleetConfig config = fleet::fleet_config_for(cell.point, trial_seed);
    obs::EventJournal journal;
    config.journal = &journal;
    config.enforce_invariants = false;
    fleet::FleetVerifier verifier(config);
    (void)verifier.run();
    ok = write_journal(journal, dir, "fleet", cell, trial) && ok;
  }
  return ok;
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
      options.trials = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      options.threads = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--out") {
      options.out_dir = next();
    } else if (arg == "--journal-out") {
      options.journal_dir = next();
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (options.list) {
    usage(argv[0]);
    return 0;
  }

  try {
    exp::CampaignSpec spec = build_spec(options);
    for (auto& axis : exp::parse_grid_spec(options.grid_override)) {
      spec.grid.set_axis(axis.name, std::move(axis.values));
    }

    std::printf("=== campaign %s: %zu cells x %zu trials (seed %llu) ===\n",
                spec.name.c_str(), spec.grid.size(), spec.trials_per_point,
                static_cast<unsigned long long>(spec.base_seed));
    const exp::CampaignResult result = exp::run_campaign(spec);
    std::printf("%s\n", exp::campaign_table(result).render().c_str());
    std::printf("ran on %zu thread(s) in %.3f s\n", result.threads_used,
                result.wall_seconds);

    bool ok = true;
    if (spec.name == "smarm_escape") ok = check_smarm_cells(result);
    if (spec.name == "fleet") {
      // The per-trial require() already threw on a violated fleet
      // invariant; assert the aggregate too so the check shows up in the
      // output even when every trial passed.
      for (const auto& cell : result.cells) {
        const auto it = cell.values.find("resolved");
        if (it == cell.values.end() || it->second.mean() != 1.0) {
          std::fprintf(stderr, "FAIL: %s: some fleet rounds never resolved\n",
                       cell.point.label().c_str());
          ok = false;
        }
      }
    }
    if (spec.name == "network") {
      // Every round in every trial must have reached a terminal outcome
      // (the per-trial require() would already have thrown on a leak, but
      // assert the aggregate too so the invariant shows in the output).
      for (const auto& cell : result.cells) {
        const auto it = cell.values.find("resolved");
        if (it == cell.values.end() || it->second.mean() != 1.0) {
          std::fprintf(stderr, "FAIL: %s: some rounds never resolved\n",
                       cell.point.label().c_str());
          ok = false;
        }
      }
    }
    if (spec.name == "measurement_cache") {
      // Cached and uncached measurements must be byte-identical in every
      // single trial — anything less is a correctness bug, not noise.
      for (const auto& cell : result.cells) {
        if (cell.successes != cell.attempts) {
          std::fprintf(stderr, "FAIL: %s: cached/uncached divergence in %llu/%llu trials\n",
                       cell.point.label().c_str(),
                       static_cast<unsigned long long>(cell.attempts - cell.successes),
                       static_cast<unsigned long long>(cell.attempts));
          ok = false;
        }
      }
    }

    if (spec.name == "mtree") {
      // Verdict correctness is per-trial exact: healthy cells must verify
      // and infected cells must localize exactly the infected range.
      for (const auto& cell : result.cells) {
        if (cell.successes != cell.attempts) {
          std::fprintf(stderr, "FAIL: %s: wrong verdict/localization in %llu/%llu trials\n",
                       cell.point.label().c_str(),
                       static_cast<unsigned long long>(cell.attempts - cell.successes),
                       static_cast<unsigned long long>(cell.attempts));
          ok = false;
        }
      }
    }

    if (!options.journal_dir.empty()) {
      const std::string dir =
          options.journal_dir == "." ? std::string() : options.journal_dir;
      if (spec.name == "network") {
        if (!write_network_journals(result, dir)) return 2;
      } else if (spec.name == "fleet") {
        if (!write_fleet_journals(result, dir)) return 2;
      } else {
        std::fprintf(stderr,
                     "campaign_runner: --journal-out only applies to "
                     "network_reliability and fleet_scale; ignoring\n");
      }
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
      std::fprintf(stderr, "FAIL: some cells disagree with the closed form\n");
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_runner: %s\n", e.what());
    return 2;
  }
}
