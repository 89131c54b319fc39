// device_churn: one device with 8 MiB of attested memory (well above a
// core's L2), the default flat prover with its digest cache, rounds through
// attest::OnDemandProtocol::run over a lossless sim::Link.  Before each
// round the benchmark rewrites a seeded set of blocks in place with
// sim::DeviceMemory::write (same bytes, so generations bump but the golden
// still matches): most rounds dirty ~1%, exactly 4% of the scheduled
// rounds (at seeded places) rewrite 80-100% of memory, and exactly 1% plant
// a one-byte infection that is restored after the round.
//
// Why: host time here is bulk measurement — cache hits vs. lane-batched
// re-digests, plus the combine over all 2048 block digests.  Control-plane
// crypto and the event loop are a negligible share.  The p50 shows the
// cached path, the tail the full re-digest, and the churn writes sit
// beside the measurement reads inside each timed round.

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "bench.hpp"
#include "calibrate.hpp"
#include "src/attest/golden.hpp"
#include "src/attest/protocol.hpp"
#include "src/exp/seeding.hpp"
#include "src/sim/device.hpp"
#include "src/sim/network.hpp"
#include "src/support/rng.hpp"
#include "stats.hpp"
#include "workload_util.hpp"

namespace perfbench {

using namespace rasc;

namespace {

constexpr std::size_t kBlockSize = 4096;
constexpr std::size_t kBlocks = 2048;  // 8 MiB
constexpr std::size_t kScheduleRounds = 1000;
constexpr std::size_t kSetupSamples = 9;
constexpr std::size_t kProbeEvery = 25;  // rounds: 40 probe slices per pass
constexpr double kRewriteFraction = 0.04;
constexpr double kInfectFraction = 0.01;

enum class Kind : std::uint8_t { kChurn, kRewrite, kInfect };

struct PlannedRound {
  Kind kind = Kind::kChurn;
  std::vector<std::uint32_t> blocks;  ///< rewritten in place, in this order
  std::size_t infect_addr = 0;        ///< kInfect: byte flipped for the round
};

struct Inputs {
  support::Bytes image;
  support::Bytes key;
  std::uint64_t challenge_seed = 0;
  std::uint64_t link_seed = 0;
  std::vector<PlannedRound> schedule;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  support::Xoshiro256 rng(exp::mix64(seed ^ 0x636875726eULL));
  in.image.resize(kBlocks * kBlockSize);
  for (std::size_t i = 0; i < in.image.size(); i += 8) {
    std::uint64_t v = rng();
    for (std::size_t k = 0; k < 8; ++k) in.image[i + k] = static_cast<std::uint8_t>(v >> (8 * k));
  }
  in.key.resize(32);
  for (auto& b : in.key) b = static_cast<std::uint8_t>(rng.below(256));
  in.challenge_seed = rng();
  in.link_seed = rng();
  std::vector<std::uint32_t> order(kBlocks);
  std::iota(order.begin(), order.end(), 0u);
  // Exactly kRewriteFraction / kInfectFraction of the scheduled rounds, at
  // seeded places: a seed's share of full re-digests would otherwise move
  // the rate by more than the host does.
  std::vector<Kind> kinds(kScheduleRounds, Kind::kChurn);
  const auto rewrites = static_cast<std::size_t>(kRewriteFraction * kScheduleRounds);
  const auto infects = static_cast<std::size_t>(kInfectFraction * kScheduleRounds);
  std::fill_n(kinds.begin(), rewrites, Kind::kRewrite);
  std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(rewrites), infects, Kind::kInfect);
  for (std::size_t i = kinds.size(); i > 1; --i) std::swap(kinds[i - 1], kinds[rng.below(i)]);
  in.schedule.resize(kScheduleRounds);
  for (std::size_t k = 0; k < kScheduleRounds; ++k) {
    PlannedRound& r = in.schedule[k];
    r.kind = kinds[k];
    const std::size_t dirty =
        r.kind == Kind::kRewrite
            ? kBlocks * 4 / 5 + rng.below(kBlocks / 5 + 1)     // 80-100%
            : kBlocks / 200 + rng.below(kBlocks / 100 + 1);   // ~0.5-1.5%
    for (std::size_t i = 0; i < dirty; ++i) {  // partial Fisher-Yates
      std::swap(order[i], order[i + rng.below(kBlocks - i)]);
    }
    r.blocks.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(dirty));
    if (r.kind == Kind::kInfect) r.infect_addr = rng.below(in.image.size());
  }
  return in;
}

std::shared_ptr<const attest::GoldenMeasurement> timed_golden(const Inputs& in,
                                                              double& seconds) {
  const std::int64_t t0 = now_ns();
  auto golden = std::make_shared<const attest::GoldenMeasurement>(
      in.image, kBlockSize, crypto::HashKind::kSha256, in.key);
  seconds = seconds_since(t0);
  return golden;
}

sim::DeviceConfig device_config(const Inputs& in) {
  sim::DeviceConfig dev;
  dev.id = "prv-churn";
  dev.memory_size = kBlocks * kBlockSize;
  dev.block_size = kBlockSize;
  dev.attestation_key = in.key;
  return dev;
}

sim::LinkConfig link_config(const Inputs& in, bool forward) {
  sim::LinkConfig link;
  link.name = forward ? "vrf->prv" : "prv->vrf";
  link.seed = in.link_seed + (forward ? 0 : 1);
  return link;
}

/// Device, verifier, prover and the two links, wired once per set-up.
struct ChurnStack {
  double golden_s = 0;
  sim::Simulator sim;
  sim::Device device;
  std::shared_ptr<const attest::GoldenMeasurement> golden;
  attest::Verifier verifier;
  attest::AttestationProcess mp;
  sim::Link vrf_to_prv;
  sim::Link prv_to_vrf;
  attest::OnDemandProtocol protocol;
  std::uint64_t next_counter = 1;

  explicit ChurnStack(const Inputs& in)
      : device(sim, device_config(in)),
        golden(timed_golden(in, golden_s)),
        verifier(golden, in.key, in.challenge_seed),
        mp(device, attest::ProverConfig{}),
        vrf_to_prv(sim, link_config(in, true)),
        prv_to_vrf(sim, link_config(in, false)),
        protocol(device, verifier, mp, vrf_to_prv, prv_to_vrf) {
    device.memory().load(in.image);
  }
};

struct Verdict {
  bool resolved = false;
  bool ok = false;         ///< report verified
  bool mac_ok = false;
  bool digest_ok = false;
};

/// Hooks for the traced run: which sim event measured, which one judged.
struct StepMarks {
  bool measured = false;
  std::int64_t measured_ns = 0;
  bool judged = false;
};

/// One round: churn writes, the protocol round, and the event loop until
/// the verdict is in.  With an enabled tracer every simulator event is
/// stepped and recorded as its own span.
Verdict run_round(ChurnStack& s, const Inputs& in, const PlannedRound& pr, Tracer& tr,
                  std::int32_t parent, std::uint64_t round, StepMarks& marks) {
  auto& mem = s.device.memory();
  const support::ByteView image(in.image);
  std::uint8_t original = 0;
  {
    ScopedSpan span(tr, "sim.memory.write", parent, round);
    for (std::uint32_t b : pr.blocks) {
      mem.write(b * kBlockSize, image.subspan(b * kBlockSize, kBlockSize), s.sim.now(),
                sim::Actor::kApplication);
    }
    if (pr.kind == Kind::kInfect) {
      original = in.image[pr.infect_addr];
      const support::Bytes patch{static_cast<std::uint8_t>(original ^ 0xff)};
      mem.write(pr.infect_addr, patch, s.sim.now(), sim::Actor::kMalware);
    }
  }
  Verdict v;
  {
    ScopedSpan span(tr, "attest.protocol.run", parent, round);
    s.protocol.run(s.next_counter++, [&v, &marks](attest::OnDemandTimings t) {
      v.resolved = true;
      v.ok = t.report_wire_ok && t.outcome.ok();
      v.mac_ok = t.outcome.mac_ok;
      v.digest_ok = t.outcome.digest_ok;
      marks.judged = true;
    });
  }
  if (!tr.enabled()) {
    s.sim.run();
  } else {
    while (!s.sim.empty()) {
      marks = StepMarks{};
      const std::int64_t t0 = now_ns();
      s.sim.run(1);
      const std::int64_t t1 = now_ns();
      if (marks.measured) {
        const std::int32_t id = tr.record("attest.prover.measure", t0, t1, parent, round);
        tr.record("attest.prover.finalize", marks.measured_ns, t1, id, round);
      } else if (marks.judged) {
        tr.record("attest.verifier.verify", t0, t1, parent, round);
      } else {
        tr.record("sim.event", t0, t1, parent, round);
      }
    }
  }
  if (pr.kind == Kind::kInfect) {
    ScopedSpan span(tr, "sim.memory.write", parent, round);
    const support::Bytes restore{original};
    mem.write(pr.infect_addr, restore, s.sim.now(), sim::Actor::kApplication);
  }
  return v;
}

bool verdict_correct(const PlannedRound& pr, const Verdict& v) {
  if (!v.resolved) return false;
  if (pr.kind == Kind::kInfect) return v.mac_ok && !v.digest_ok;
  return v.ok;
}

}  // namespace

RunResult run_device_churn(const RunOptions& o) {
  RunResult out;
  Tracer tracer(o.trace);
  Tracer off(false);
  // Rotate every 10 ms: a full re-digest round (~15 ms) spans CPUs, and the
  // ~1 ms cached rounds sample them all alike.
  CpuRotor rotor(std::chrono::milliseconds(10));
  rotor.enroll();
  HostProbe probe;
  const Inputs in = make_inputs(o.seed);

  // Set-up: provisioning + golden digest + a warm-up round (every block a
  // cache miss), several times; the last stack is the one timed.
  std::vector<double> setup_s;
  std::vector<double> golden_s;
  std::unique_ptr<ChurnStack> stack;
  StepMarks marks;
  const PlannedRound warmup;
  const auto set_up = [&] {
    stack.reset();
    const std::int64_t t0 = now_ns();
    stack = std::make_unique<ChurnStack>(in);
    const Verdict v = run_round(*stack, in, warmup, off, -1, 0, marks);
    setup_s.push_back(seconds_since(t0));
    golden_s.push_back(stack->golden_s);
    out.check(v.resolved && v.ok, "warm-up round did not verify");
  };
  for (std::size_t i = 0; i < kSetupSamples; ++i) set_up();
  ChurnStack& s = *stack;
  s.mp.set_observer([&marks](std::size_t, std::size_t) {
    marks.measured = true;
    marks.measured_ns = now_ns();
  });

  Fingerprint fp;
  std::vector<double> round_ms_untraced;
  std::vector<double> round_ms_traced;
  // Untraced, per scheduled round: at the probe's nominal speed, and raw.
  std::vector<std::vector<double>> by_slot(kScheduleRounds);
  std::vector<std::vector<double>> by_slot_raw(kScheduleRounds);
  // The current pass's untraced (slot, ms) samples, scaled when it ends by
  // the probe slices taken during it.
  std::vector<std::pair<std::size_t, double>> pass;
  std::size_t pass_probe_from = 0;
  const auto end_pass = [&] {
    const double slow = probe.slowdown_since(pass_probe_from);
    for (const auto& [slot, ms] : pass) {
      by_slot[slot].push_back(ms / slow);
      by_slot_raw[slot].push_back(ms);
    }
    pass.clear();
    pass_probe_from = probe.slices();
  };
  std::uint64_t writes = 0;
  std::uint64_t misses_traced = 0;
  const auto run_for = [&](double budget_s, bool traced, std::vector<double>& samples) {
    Tracer& tr = traced ? tracer : off;
    const std::int64_t start = now_ns();
    while (samples.size() < kScheduleRounds || seconds_since(start) < budget_s) {
      const std::uint64_t r = out.attempted++;
      if (r % kProbeEvery == 0) probe.sample(1);
      const PlannedRound& pr = in.schedule[r % kScheduleRounds];
      const std::uint64_t misses_before = s.mp.digest_cache().misses();
      const std::int64_t t0 = now_ns();
      const std::int32_t span = tr.begin("bench.round", -1, r);
      const Verdict v = run_round(s, in, pr, tr, span, r, marks);
      tr.end(span);
      samples.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      if (!traced) {
        pass.emplace_back(r % kScheduleRounds, samples.back());
        if ((r + 1) % kScheduleRounds == 0) end_pass();
      }
      if (traced) misses_traced += s.mp.digest_cache().misses() - misses_before;
      writes += pr.blocks.size() + (pr.kind == Kind::kInfect ? 2 : 0);
      if (!verdict_correct(pr, v)) {
        out.fail("round " + std::to_string(r) + " (" +
                 (pr.kind == Kind::kInfect ? "infected" : "clean") + ") misjudged");
      }
      if (r < kScheduleRounds) {
        fp.add(static_cast<std::uint64_t>(v.ok) * 2 + v.digest_ok);
        if (r + 1 == kScheduleRounds) {
          fp.add(s.sim.now());
          fp.add(s.mp.digest_cache().hits());
          fp.add(s.mp.digest_cache().misses());
          fp.add(s.vrf_to_prv.delivered() + s.prv_to_vrf.delivered());
          out.fingerprint = fp.hex();
        }
      }
    }
  };
  run_for(o.trace ? o.seconds / 2 : o.seconds, false, round_ms_untraced);
  end_pass();  // the last, partial pass
  if (o.trace) run_for(o.seconds / 2, true, round_ms_traced);

  // The cached measurement must equal an uncached re-measure and the golden.
  {
    ScopedSpan span(tracer, "check.cache_vs_uncached");
    const attest::MeasurementContext ctx{s.device.id(), support::to_bytes("final"), 0};
    const auto measure = [&](attest::DigestCache* cache) {
      attest::Measurement m(s.device.memory(), crypto::HashKind::kSha256, in.key, ctx);
      m.set_digest_cache(cache);
      std::vector<std::size_t> all(kBlocks);
      std::iota(all.begin(), all.end(), std::size_t{0});
      m.visit_blocks(all, s.sim.now());
      return m.finalize();
    };
    const support::Bytes cached = measure(&s.mp.digest_cache());
    out.check(cached == measure(nullptr), "cached measurement differs from uncached");
    out.check(cached == s.golden->expected(ctx), "final memory differs from the golden");
  }

  // The schedule repeats, so each scheduled round's median over the passes
  // is one sample, and their sum is the host time of one pass.
  TailStat t;
  const auto times = [&](const std::vector<std::vector<double>>& slots) {
    const std::vector<double> per_round = medians(slots);
    const double pass_s = std::accumulate(per_round.begin(), per_round.end(), 0.0) * 1e-3;
    t = tail(per_round);
    return PassTimes{static_cast<double>(kScheduleRounds) / pass_s, median(per_round), t.value};
  };
  const PassTimes raw = times(by_slot_raw);
  const PassTimes scaled = times(by_slot);
  out.notes.push_back("round_host_ms.tail is the " + describe(t) +
                      ", each one scheduled round's median over " +
                      std::to_string(by_slot.back().size()) + "+ passes");

  if (!o.trace) {
    // Set up as often again at the end of the run, so the median spans the
    // host's load at both ends.  This replaces the timed stack, and `s`.
    for (std::size_t i = 0; i < kSetupSamples; ++i) set_up();
    set_at_nominal_speed(out, probe, scaled, raw, median(setup_s));
    return out;
  }

  const std::vector<Span> spans = tracer.spans();
  std::vector<double> measure_ms;
  for (const Span& sp : spans) {
    if (std::string_view(sp.name) == "attest.prover.measure") {
      measure_ms.push_back(static_cast<double>(sp.end_ns - sp.start_ns) * 1e-6);
    }
  }
  const auto& cache = s.mp.digest_cache();
  const double rounds = static_cast<double>(out.attempted);
  out.set("attest.prover.measure_ms",
          measure_ms.empty() ? 0.0
                             : std::accumulate(measure_ms.begin(), measure_ms.end(), 0.0) /
                                   static_cast<double>(measure_ms.size()),
          "ms");
  out.set("attest.digest_cache.hit_ratio",
          static_cast<double>(cache.hits()) / static_cast<double>(cache.hits() + cache.misses()),
          "ratio");
  out.set("attest.session.attempts_per_round", 1.0, "ratio");
  out.set("attest.session.decisive_ratio", 1.0, "ratio");
  out.set("sim.writes_per_round", static_cast<double>(writes) / rounds, "count");
  out.set("sim.link.sent", static_cast<double>(s.vrf_to_prv.sent() + s.prv_to_vrf.sent()),
          "count");

  Geometry g;
  g.blocks = kBlocks;
  g.block_size = kBlockSize;
  g.write_size = kBlockSize;
  g.event_depth = 4;  // a lone session keeps at most a few events pending
  const CallCosts cost = calibrate(g, tracer);
  set_call_costs(out, cost);
  out.set("attest.golden_build_s", median(golden_s), "s");  // as built during set-up
  out.set("locking.consistency_us", calibrate_consistency(g, 64, tracer) * 1e6, "us");

  const std::vector<Estimate> estimates = {
      {"crypto.block_digest", "attest.prover.measure", static_cast<double>(misses_traced),
       cost.block_digest},
  };
  finish_trace(out, o, tracer, "bench.round", 1, estimates, median(round_ms_untraced),
               median(round_ms_traced));
  return out;
}

}  // namespace perfbench
