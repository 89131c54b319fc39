// Heap-allocation guard for the event core, its hot clients and one
// attested session round.  This file replaces the global operator new
// with a counting one, so it is its own test binary: no other suite runs
// under the counter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/apps/scenario.hpp"
#include "src/attest/stack.hpp"
#include "src/exp/grid.hpp"
#include "src/exp/seeding.hpp"
#include "src/fleet/campaign.hpp"
#include "src/fleet/fleet.hpp"
#include "src/sim/cpu.hpp"
#include "src/sim/network.hpp"
#include "src/sim/simulator.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// The replacements are not inlined: where make_shared allocates and frees
// in one function, GCC would otherwise see malloc() and free() pair with
// operator new and delete, and warn of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rasc::sim {
namespace {

constexpr int kCycles = 1000;

/// Heap allocations made while running `fn`.
template <class Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(SimAlloc, CounterSeesHeapAllocations) {
  EXPECT_GE(allocations_during([] { support::Bytes b(64); (void)b; }), 1u);
}

TEST(SimAlloc, SteadyStateScheduleFireCancelAllocatesNothing) {
  Simulator sim;
  std::uint64_t sum = 0;
  // The event core's own clients capture `this` plus at most one word,
  // which std::function holds inline.
  const auto cycle = [&](int i) {
    const Time t = sim.now();
    const std::uint64_t step = static_cast<std::uint64_t>(i);
    sim.schedule_at(t + 1 + static_cast<Time>(i % 7), [&sum, step] { sum += step; });
    sim.schedule_in(0, [&sum, step] { sum += step + 1; });  // zero delay
    sim.schedule_at(t / 2, [&sum] { ++sum; });              // clamped to now
    EventHandle doomed = sim.schedule_in(3, [&sum, step] { sum += step + 2; });
    doomed.cancel();
    sim.run(3);
  };
  for (int i = 0; i < kCycles; ++i) cycle(i);  // warm the pool and the heap
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < kCycles; ++i) cycle(i);
  });
  EXPECT_EQ(n, 0u);
  sim.run();
  EXPECT_GT(sum, 0u);
}

/// One CPU segment per make_ready, like the writer task.
class OneShot final : public Process {
 public:
  OneShot() : Process("app/one-shot", 1) {}
  std::optional<Segment> next_segment() override {
    if (!armed_) return std::nullopt;
    armed_ = false;
    return Segment{5, [this] { ++completions_; }};
  }
  void arm() { armed_ = true; }
  int completions() const { return completions_; }

 private:
  bool armed_ = false;
  int completions_ = 0;
};

TEST(SimAlloc, WarmCpuSegmentCycleAllocatesNothing) {
  Simulator sim;
  Cpu cpu(sim);
  OneShot p;
  const auto cycle = [&] {
    p.arm();
    cpu.make_ready(p);
    sim.run();
  };
  cycle();  // first segment: the ready set grows
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < kCycles; ++i) cycle();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(p.completions(), kCycles + 1);
}

TEST(SimAlloc, WarmLinkDeliveryOfMovedPayloadAllocatesNothing) {
  Simulator sim;
  Link link(sim, {});
  support::Bytes held(64, 0xab);
  std::size_t delivered = 0;
  const auto cycle = [&] {
    link.send(std::move(held), [&held, &delivered](support::Bytes payload) {
      held = std::move(payload);
      ++delivered;
    });
    sim.run();
  };
  cycle();  // warm-up
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < kCycles; ++i) cycle();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(delivered, static_cast<std::size_t>(kCycles + 1));
  EXPECT_EQ(held.size(), 64u);
}

TEST(SimAlloc, LockMatrixTrialStaysUnderEighty) {
  // One Table 1 trial as the lock_matrix campaign runs it: 32 x 512 B
  // blocks with the writer on, ~60k events.  Everything counts: device,
  // prover, verifier, campaign plumbing.  The writer's ~20k arrivals are
  // one series, so neither the slot pool nor the queue grows with them
  // (168 while they were pre-armed one event each).
  apps::LockScenarioConfig config;
  config.blocks = 32;
  config.block_size = 512;
  config.writer_enabled = true;
  config.seed = 1;
  apps::LockScenarioOutcome outcome;
  const std::size_t n = allocations_during([&] { outcome = apps::run_lock_scenario(config); });
  EXPECT_TRUE(outcome.completed);
  EXPECT_GT(outcome.writer_attempts_during, 0u);
  EXPECT_LE(n, 80u);
  RecordProperty("allocations", static_cast<int>(n));
}

TEST(SimAlloc, WarmCleanSessionRoundStaysAtThree) {
  // One round of a warm attest::Stack over lossless links, sized like a
  // fleet device: challenge, sealed request, measurement, report wire and
  // verdict.  What is left is the two wires the links carry and the
  // protocol's attempt record, released when the stack goes quiet (28
  // while continuations, challenges, reports and the measurement each
  // allocated).
  Simulator sim;
  const support::Bytes image = support::random_bytes(3, 4 * 64);
  attest::StackConfig config;
  config.device = {"prv-alloc", image.size(), 64, support::to_bytes("k")};
  config.challenge_key = attest::make_challenge_key(1);
  attest::Stack stack(sim, config, image);
  const auto round = [&] {
    bool verified = false;
    stack.session.run([&verified](attest::RoundResult result) {
      verified = result.outcome == attest::SessionOutcome::kVerified;
    });
    sim.run();
    return verified;
  };
  ASSERT_TRUE(round());  // warm-up: pools, caches and the golden's lookups
  bool verified = false;
  const std::size_t n = allocations_during([&] { verified = round(); });
  EXPECT_TRUE(verified);
  EXPECT_LE(n, 3u);
  RecordProperty("allocations", static_cast<int>(n));
}

/// Allocations of the second of two measurements of a 4 x 64 B prover, no
/// session around it.  Warm: pools filled, every block a cache hit; with
/// `rewrite_between`, every block is rewritten before the counted round,
/// so each one misses the cache and is digested (a cold measurement).
std::size_t prover_round_allocations(attest::ExecutionMode mode,
                                     bool rewrite_between = false) {
  Simulator sim;
  const support::Bytes image = support::random_bytes(5, 4 * 64);
  attest::StackConfig config;
  config.device = {"prv-alloc", image.size(), 64, support::to_bytes("k")};
  config.challenge_key = attest::make_challenge_key(1);
  config.prover.mode = mode;
  attest::Stack stack(sim, config, image);
  const support::Bytes challenge = support::random_bytes(6, 32);
  std::uint64_t counter = 0;
  const auto round = [&] {
    bool done = false;
    stack.mp.start(attest::MeasurementContext{"prv-alloc", challenge, ++counter},
                   [&done](const attest::AttestationResult& result) {
                     done = result.visit_times.size() == 4 &&
                            result.report.challenge.size() == 32;
                   });
    sim.run();
    return done;
  };
  EXPECT_TRUE(round());  // warm-up
  if (rewrite_between) {
    DeviceMemory& memory = stack.device.memory();
    const support::Bytes patch(64, 0x5a);
    for (std::size_t b = 0; b < memory.block_count(); ++b) {
      EXPECT_TRUE(memory.write(b * 64, patch, sim.now(), Actor::kApplication));
    }
  }
  const std::size_t misses = stack.mp.digest_cache().misses();
  bool done = false;
  const std::size_t n = allocations_during([&] { done = round(); });
  EXPECT_TRUE(done);
  EXPECT_EQ(stack.mp.digest_cache().misses() - misses, rewrite_between ? 4u : 0u);
  return n;
}

TEST(SimAlloc, WarmAtomicProverRoundAllocatesNothing) {
  // One atomic measurement.  The process keeps its measurement, traversal
  // order and report, and hands the visit-time buffer back and forth with
  // its result (9 while each round built a fresh measurement).
  EXPECT_EQ(prover_round_allocations(attest::ExecutionMode::kAtomic), 0u);
}

TEST(SimAlloc, WarmInterruptibleProverRoundAllocatesNothing) {
  // Interruptible: every block is its own CPU segment and goes through
  // Measurement::visit_block, the per-block path.
  EXPECT_EQ(prover_round_allocations(attest::ExecutionMode::kInterruptible), 0u);
}

TEST(SimAlloc, ColdInterruptibleProverRoundAllocatesNothing) {
  // Every block misses and is digested through the per-block path, from
  // stack buffers (13 while each round built a measurement with its own
  // batch scratch).
  EXPECT_EQ(prover_round_allocations(attest::ExecutionMode::kInterruptible, true), 0u);
}

TEST(SimAlloc, FleetLossyRoundStaysUnderSeven) {
  // perfbench's fleet_lossy cell: 20k devices, 20% drop, uniform stagger,
  // 4096 live stacks, so most second-epoch rounds wake a hibernated device
  // onto a re-seated stack.  Counted around run() only: the ~4.1k stack
  // builds and every re-seat count, fleet construction does not.  What is
  // left is mostly each attempt's wires and attempt record.  16.2 a round
  // while every wake built a new stack, 41.65 while protocol
  // continuations, report codec, challenges and per-round measurements
  // allocated.
  exp::ParamGrid grid;
  grid.axis("devices", {std::int64_t{20000}});
  grid.axis("drop_pct", {std::int64_t{20}});
  grid.axis("stagger", {std::string("uniform")});
  fleet::FleetConfig config =
      fleet::fleet_config_for(grid.point(0), exp::derive_trial_seed(1, 0, 0));
  config.enforce_invariants = true;
  fleet::FleetVerifier verifier(config);
  fleet::FleetResult result;
  const std::size_t n = allocations_during([&] { result = verifier.run(); });
  ASSERT_EQ(result.rounds_resolved, 40000u);
  const double per_round =
      static_cast<double>(n) / static_cast<double>(result.rounds_resolved);
  EXPECT_LE(per_round, 7.0);
  RecordProperty("allocations_per_round_x100", static_cast<int>(per_round * 100));
}

TEST(SimAlloc, ReseatOfAWarmFlatStackAllocatesNothing) {
  // A fleet wake re-seats a pooled stack for another device, possibly of
  // another shard: new id, key, image, golden, K_chal and seeds.  With
  // the sizes and key length the stack already holds, every member
  // re-seats into its own storage.
  Simulator sim;
  const auto seat = [](std::uint64_t n, const char* id, support::Bytes& image) {
    image = support::random_bytes(20 + n, 4 * 64);
    attest::StackConfig config;
    config.device = {id, image.size(), 64, support::random_bytes(30 + n, 16)};
    config.golden = std::make_shared<const attest::GoldenMeasurement>(
        image, 64, crypto::HashKind::kSha256, config.device.attestation_key);
    config.challenge_key = attest::make_challenge_key(40 + n);
    config.challenge_domain = n;
    config.to_prv.seed = 50 + n;
    config.to_vrf.seed = 60 + n;
    config.session.seed = 70 + n;
    return config;
  };
  support::Bytes first_image, second_image;
  const attest::StackConfig first = seat(1, "prv-1", first_image);
  const attest::StackConfig second = seat(2, "prv-20000", second_image);
  attest::Stack stack(sim, first, first_image);
  stack.infect();
  bool judged = false;
  stack.session.run([&judged](attest::RoundResult result) {
    judged = result.outcome == attest::SessionOutcome::kCompromised;
  });
  sim.run();
  ASSERT_TRUE(judged);  // warm: measurement kept, delivery records pooled
  EXPECT_EQ(allocations_during([&] { stack.reseat(second, second_image); }), 0u);
  EXPECT_EQ(stack.device.id(), "prv-20000");
  stack.session.run([&judged](attest::RoundResult result) {
    judged = result.outcome == attest::SessionOutcome::kVerified;
  });
  sim.run();
  EXPECT_TRUE(judged);
}

TEST(SimAlloc, RestoringAnEmptyProofBacklogAllocatesNothing) {
  // Every fleet wake restores the process state; flat mode never has a
  // backlog, so the per-block backlog flags are left unsized.
  Simulator sim;
  const support::Bytes image = support::random_bytes(8, 4 * 64);
  attest::StackConfig config;
  config.device = {"prv-restore", image.size(), 64, support::to_bytes("k")};
  config.challenge_key = attest::make_challenge_key(1);
  attest::Stack stack(sim, config, image);
  const attest::AttestationProcess::ProcessState empty;
  EXPECT_EQ(allocations_during([&] { stack.mp.restore_process_state(empty); }), 0u);
}

TEST(SimAlloc, SessionWithoutJournalBuildsNoLabel) {
  // A fleet wake re-seats a session, almost always with no journal
  // attached: its journal label is built on first use instead.
  Simulator sim;
  const support::Bytes image = support::random_bytes(7, 4 * 64);
  attest::StackConfig config;
  config.device = {"prv-without-journal", image.size(), 64, support::to_bytes("k")};
  config.challenge_key = attest::make_challenge_key(1);
  attest::Stack stack(sim, config, image);
  const std::size_t n = allocations_during([&] {
    attest::ReliableSession session(stack.device, stack.verifier, stack.mp,
                                    stack.vrf_to_prv, stack.prv_to_vrf, {});
    session.reseat({});
  });
  EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace rasc::sim
