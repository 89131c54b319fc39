// table1_writer: the lock_matrix campaign (7 locking mechanisms x 3
// adversaries, writer app on), driven through exp::run_campaign on a fixed
// pool of two worker threads.  The benchmark wraps spec.trial to time each
// trial; one trial is one attestation round.
//
// Why: this is the paper's safety-vs-attestation matrix (Table 1), and its
// host time is the sim event loop: nearly all of a trial is the writer
// task's ~20k simulated 64 B writes (MPU checks, write log, CPU segments),
// while crypto is a rounding error.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "calibrate.hpp"
#include "src/apps/campaign.hpp"
#include "src/apps/writer_task.hpp"
#include "src/attest/prover.hpp"
#include "src/exp/seeding.hpp"
#include "src/sim/device.hpp"
#include "stats.hpp"
#include "workload_util.hpp"

namespace perfbench {

using namespace rasc;

namespace {

constexpr std::size_t kThreads = 2;
constexpr std::size_t kTrialsPerCell = 8;  // 168 trials, 42 four-trial shards per repetition
constexpr std::size_t kSetupSamples = 9;        // before the first repetition
constexpr std::size_t kSetupSamplesPerRep = 3;  // after each repetition
constexpr std::size_t kProbeSlices = 16;  // between repetitions, ~25 ms

/// Per-trial host times, filled from the worker threads.
struct TrialClock {
  std::mutex mu;
  std::vector<double> ms;          ///< guarded by mu
  std::vector<std::size_t> slots;  ///< guarded by mu; the trial's index in the campaign
  Tracer* tracer = nullptr;
  std::int32_t parent = -1;
  CpuRotor* rotor = nullptr;  ///< set while timing: workers enroll on their first trial
};

exp::CampaignSpec lock_matrix_spec(std::uint64_t seed) {
  apps::LockMatrixCampaignOptions options;
  options.trials = kTrialsPerCell;
  options.seed = exp::derive_trial_seed(seed, 0, 0);
  options.threads = kThreads;
  return apps::make_lock_matrix_campaign(options);
}

/// One set-up sample, in seconds: the spec build plus a warm-up trial, on
/// the `k`-th allowed CPU (the main thread is not rotated).
double time_setup(std::uint64_t seed, std::size_t k) {
  const PinnedTo cpu(k);
  const std::int64_t t0 = now_ns();
  const exp::CampaignSpec spec = lock_matrix_spec(seed);
  exp::TrialContext ctx;
  ctx.seed = exp::derive_trial_seed(spec.base_seed, 0, 0);
  ctx.rng = exp::make_trial_rng(spec.base_seed, 0, 0);
  (void)spec.trial(spec.grid.point(0), ctx);
  return seconds_since(t0);
}

exp::CampaignSpec make_spec(std::uint64_t seed, TrialClock& clock) {
  exp::CampaignSpec spec = lock_matrix_spec(seed);
  spec.trial = [inner = spec.trial, &clock](const exp::GridPoint& point,
                                            exp::TrialContext& ctx) {
    if (clock.rotor != nullptr) clock.rotor->enroll();
    const std::int64_t t0 = now_ns();
    exp::TrialOutput out = inner(point, ctx);
    const std::int64_t t1 = now_ns();
    const std::size_t slot = ctx.grid_index * kTrialsPerCell + ctx.trial_index;
    clock.tracer->record("apps.trial", t0, t1, clock.parent, slot);
    std::lock_guard<std::mutex> lock(clock.mu);
    clock.ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    clock.slots.push_back(slot);
    return out;
  };
  return spec;
}

std::string hex_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string fingerprint_of(const exp::CampaignResult& r) {
  Fingerprint fp;
  for (const exp::CellResult& cell : r.cells) {
    fp.add(cell.point.label());
    fp.add(cell.trials);
    fp.add(cell.successes);
    fp.add(cell.attempts);
    for (const auto& [name, m] : cell.values) {
      fp.add(name);
      fp.add(m.count());
      fp.add(hex_double(m.mean()));
      fp.add(hex_double(m.min()));
      fp.add(hex_double(m.max()));
    }
  }
  return fp.hex();
}

/// The writer task of one lock_matrix trial, alone on its device: the same
/// geometry, period and arming horizon apps::run_lock_scenario uses.
struct WriterReplica {
  std::size_t writes = 0;
  double seconds = 0;
};

WriterReplica replay_writer(std::uint64_t seed) {
  constexpr std::size_t kBlocks = 32;
  constexpr std::size_t kBlockSize = 512;
  constexpr int kSamples = 5;
  WriterReplica replica;
  std::vector<double> seconds;
  for (int i = 0; i < kSamples; ++i) {
    sim::Simulator simulator;
    sim::DeviceConfig dev;
    dev.id = "prv-lock";
    dev.memory_size = kBlocks * kBlockSize;
    dev.block_size = kBlockSize;
    sim::Device device(simulator, dev);
    attest::ProverConfig prover;
    prover.mode = attest::ExecutionMode::kInterruptible;
    const attest::AttestationProcess mp(device, prover);
    apps::WriterConfig wc;
    wc.period = 50 * sim::kMicrosecond;
    wc.seed = 0xd09 + seed;
    apps::WriterTask writer(device, wc);
    const std::int64_t t0 = now_ns();
    writer.arm(10 * sim::kMillisecond + 2 * mp.block_cost() * kBlocks + sim::kSecond);
    simulator.run();
    seconds.push_back(seconds_since(t0));
    replica.writes = writer.attempts();
  }
  replica.seconds = median(seconds);
  return replica;
}

}  // namespace

std::string table1_fingerprint(std::uint64_t seed, std::size_t threads) {
  Tracer off(false);
  TrialClock clock;
  clock.tracer = &off;
  exp::CampaignSpec spec = make_spec(seed, clock);
  spec.threads = threads;
  return fingerprint_of(exp::run_campaign(spec));
}

RunResult run_table1_writer(const RunOptions& o) {
  RunResult out;
  Tracer tracer(o.trace);
  Tracer off(false);
  TrialClock clock;
  clock.tracer = &off;
  // Only the campaign workers rotate, and only while timed: the main
  // thread idles in run_campaign, and workers spawned by a pinned thread
  // would start out crowded onto its one CPU.
  CpuRotor rotor;
  HostProbe probe;

  // Set-up: spec build plus one warm-up trial, several times, and again
  // after every campaign repetition, so set-up is sampled across the whole
  // run and not only during the host's load at its start.
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupSamples; ++i) setup_s.push_back(time_setup(o.seed, i));
  const exp::CampaignSpec spec = make_spec(o.seed, clock);
  const std::size_t trials_per_rep = spec.grid.size() * spec.trials_per_point;

  std::string first_fp;
  std::vector<double> wall_untraced;
  std::vector<double> wall_traced;
  std::vector<double> wall_scaled;  ///< untraced, at the probe's nominal speed
  std::vector<double> trial_ms_untraced;
  std::vector<double> trial_ms_traced;
  std::vector<std::size_t> trial_slots_untraced;
  std::vector<double> trial_slow_untraced;  ///< the probe's slowdown for each untraced trial
  // Repeat the campaign for `budget_s`; `trial_ms` receives its trial times.
  const auto run_for = [&](double budget_s, bool traced, std::vector<double>& walls,
                           std::vector<double>& trial_ms) {
    clock.tracer = traced ? &tracer : &off;
    clock.rotor = &rotor;
    const auto collect = [&] {
      clock.rotor = nullptr;
      std::lock_guard<std::mutex> lock(clock.mu);
      trial_ms.swap(clock.ms);
      clock.ms.clear();
      if (!traced) trial_slots_untraced.swap(clock.slots);
      clock.slots.clear();
    };
    const std::int64_t start = now_ns();
    for (std::size_t rep = 0; rep < 2 || keep_going(start, budget_s, walls); ++rep) {
      // The probe slices just before and just after this repetition set its
      // scale.
      const std::size_t probe_from = probe.slices() - kProbeSlices;
      out.attempted += trials_per_rep;
      const std::int64_t t0 = now_ns();
      const std::int32_t span = clock.tracer->begin("exp.campaign", -1, rep);
      clock.parent = span;
      exp::CampaignResult result;
      try {
        result = exp::run_campaign(spec);
      } catch (const std::exception& e) {
        out.failed += trials_per_rep;
        out.failures.push_back(std::string("campaign threw: ") + e.what());
        collect();
        return false;
      }
      clock.tracer->end(span);
      walls.push_back(seconds_since(t0));
      for (std::size_t i = 0; i < kSetupSamplesPerRep; ++i) {
        setup_s.push_back(time_setup(o.seed, setup_s.size()));
      }
      probe.sample(kProbeSlices);
      if (!traced) {
        const double slow = probe.slowdown_since(probe_from);
        wall_scaled.push_back(walls.back() / slow);
        std::lock_guard<std::mutex> lock(clock.mu);
        trial_slow_untraced.resize(clock.ms.size(), slow);
      }
      const std::string fp = fingerprint_of(result);
      if (first_fp.empty()) first_fp = fp;
      out.check(fp == first_fp, "campaign repetition diverged (fingerprint " + fp + ")");
    }
    collect();
    return true;
  };
  probe.sample(kProbeSlices);
  if (!run_for(o.trace ? o.seconds / 2 : o.seconds, false, wall_untraced, trial_ms_untraced)) {
    return out;
  }
  if (o.trace && !run_for(o.seconds / 2, true, wall_traced, trial_ms_traced)) return out;
  out.fingerprint = first_fp;

  // Aggregates must not depend on the thread count.
  {
    ScopedSpan span(tracer, "check.threads_1");
    clock.tracer = &off;
    exp::CampaignSpec single = spec;
    single.threads = 1;
    const std::string fp = fingerprint_of(exp::run_campaign(single));
    if (fp != first_fp) {
      out.failed += trials_per_rep;
      out.failures.push_back("campaign aggregates differ between 1 and " +
                             std::to_string(kThreads) + " threads");
    }
  }

  // Every repetition runs the same trials, so each trial's median over the
  // repetitions is one sample, and the median repetition gives the rate.
  std::vector<std::vector<double>> by_trial(trials_per_rep);
  std::vector<std::vector<double>> by_trial_raw(trials_per_rep);
  for (std::size_t i = 0; i < trial_ms_untraced.size(); ++i) {
    by_trial[trial_slots_untraced[i]].push_back(trial_ms_untraced[i] / trial_slow_untraced[i]);
    by_trial_raw[trial_slots_untraced[i]].push_back(trial_ms_untraced[i]);
  }
  TailStat t;
  const auto times = [&](const std::vector<std::vector<double>>& trials,
                         const std::vector<double>& rep_walls) {
    const std::vector<double> per_trial = medians(trials);
    t = tail(per_trial);
    return PassTimes{static_cast<double>(trials_per_rep) / median(rep_walls), median(per_trial),
                     t.value};
  };
  const PassTimes raw = times(by_trial_raw, wall_untraced);
  const PassTimes scaled = times(by_trial, wall_scaled);
  set_at_nominal_speed(out, probe, scaled, raw, median(setup_s));
  out.notes.push_back("round_host_ms.tail is the " + describe(t) +
                      ", each one trial's median over " + std::to_string(wall_untraced.size()) +
                      " repetitions; " + std::to_string(kThreads) + " worker threads");

  if (!o.trace) return out;

  const double wall_total = std::accumulate(wall_untraced.begin(), wall_untraced.end(), 0.0);
  const double trial_sum_s =
      std::accumulate(trial_ms_untraced.begin(), trial_ms_untraced.end(), 0.0) * 1e-3;
  out.set("exp.pool_overhead_share",
          1.0 - trial_sum_s / (wall_total * static_cast<double>(kThreads)), "ratio");
  const WriterReplica writer = replay_writer(o.seed);
  out.set("sim.writes_per_round", static_cast<double>(writer.writes), "count");
  out.set("attest.session.attempts_per_round", 1.0, "ratio");
  out.set("attest.session.decisive_ratio", 1.0, "ratio");

  Geometry g;
  g.blocks = 32;
  g.block_size = 512;
  g.write_size = 64;
  g.event_depth = 16;  // writer arrivals, CPU segments and the adversary
  const CallCosts cost = calibrate(g, tracer);
  set_call_costs(out, cost);
  out.set("attest.prover.measure_ms", cost.measure * 1e3, "ms");
  const double consistency = calibrate_consistency(g, writer.writes, tracer);
  out.set("locking.consistency_us", consistency * 1e6, "us");

  const double trials = static_cast<double>(trials_per_rep * wall_traced.size());
  const std::vector<Estimate> estimates = {
      {"sim.writer", "apps.trial", trials, writer.seconds},
      {"locking.consistency", "apps.trial", trials, consistency},
  };
  finish_trace(out, o, tracer, "exp.campaign", kThreads, estimates,
               median(trial_ms_untraced), median(trial_ms_traced));
  return out;
}

}  // namespace perfbench
