#include "calibrate.hpp"

#include <memory>
#include <vector>

#include "src/attest/golden.hpp"
#include "src/attest/measurement.hpp"
#include "src/attest/protocol.hpp"
#include "src/attest/report.hpp"
#include "src/attest/verifier.hpp"
#include "src/crypto/drbg.hpp"
#include "src/crypto/hmac.hpp"
#include "src/locking/consistency.hpp"
#include "src/sim/device.hpp"
#include "src/sim/simulator.hpp"
#include "src/support/rng.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace rasc;

namespace {

volatile std::size_t g_sink = 0;

/// Seconds per call of `fn`: batches grow until one lasts >= 200 us, then
/// the median of seven batches is divided by the batch size.
template <typename Fn>
double per_call(Tracer& tracer, const char* span_name, Fn&& fn) {
  ScopedSpan span(tracer, span_name);
  constexpr std::int64_t kMinBatchNs = 200'000;
  std::size_t batch = 1;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (now_ns() - t0 >= kMinBatchNs || batch >= (std::size_t{1} << 20)) break;
    batch *= 2;
  }
  std::vector<double> samples;
  for (int r = 0; r < 7; ++r) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn();
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9 /
                      static_cast<double>(batch));
  }
  return median(std::move(samples));
}

support::Bytes pattern_bytes(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  support::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

}  // namespace

CallCosts calibrate(const Geometry& g, Tracer& tracer) {
  CallCosts c;
  const support::Bytes key = pattern_bytes(32, 0x6b6579);
  const support::Bytes message = pattern_bytes(64, 0x6d7367);
  const support::Bytes seed8 = pattern_bytes(8, 0x736565);

  c.hmac_short = per_call(tracer, "calib.crypto.hmac_short", [&] {
    g_sink = g_sink + crypto::Hmac::compute(crypto::HashKind::kSha256, key, message)[0];
  });
  c.drbg_instantiate = per_call(tracer, "calib.crypto.drbg.instantiate", [&] {
    crypto::HmacDrbg drbg(seed8);
    g_sink = g_sink + 1;
  });
  crypto::HmacDrbg drbg(seed8);
  c.drbg_generate = per_call(tracer, "calib.crypto.drbg.generate", [&] {
    g_sink = g_sink + drbg.generate(16)[0];
  });

  // Verifier side at the workload's geometry.
  sim::Simulator simulator;
  sim::DeviceConfig dev;
  dev.id = "prv-calib";
  dev.memory_size = g.blocks * g.block_size;
  dev.block_size = g.block_size;
  dev.attestation_key = key;
  sim::Device device(simulator, dev);
  device.memory().load(pattern_bytes(dev.memory_size, 0x696d67));
  const support::Bytes image = device.memory().snapshot();
  c.golden_build = per_call(tracer, "calib.attest.golden_build", [&] {
    attest::GoldenMeasurement golden(image, g.block_size, crypto::HashKind::kSha256, key);
    g_sink = g_sink + golden.block_count();
  });
  const auto golden = std::make_shared<const attest::GoldenMeasurement>(
      image, g.block_size, crypto::HashKind::kSha256, key);

  attest::Verifier verifier(golden, key, 0xc0ffee);
  (void)verifier.issue_challenge(16);
  const attest::Verifier::SessionState saved = verifier.save_session_state();
  c.wake = per_call(tracer, "calib.fleet.wake", [&] {
    attest::Verifier woken(golden, key, 0xc0ffee);
    woken.restore_session_state(saved);
    g_sink = g_sink + woken.last_counter();
  });
  support::Bytes challenge;
  c.issue_challenge = per_call(tracer, "calib.attest.verifier.issue_challenge", [&] {
    challenge = verifier.issue_challenge(16);
  });
  std::uint64_t counter = 1;
  support::Bytes request_wire;
  c.seal = per_call(tracer, "calib.attest.wire.seal", [&] {
    request_wire = attest::seal_challenge_request({counter++, challenge}, key);
  });
  c.open = per_call(tracer, "calib.attest.wire.open", [&] {
    g_sink = g_sink + (attest::open_challenge_request(request_wire, key) ? 1 : 0);
  });

  // Prover side: a warm cache (every block hits), as for an unchanged round.
  attest::DigestCache cache;
  const auto measure_once = [&](attest::DigestCache* use_cache) {
    attest::Measurement m(device.memory(), crypto::HashKind::kSha256, key,
                          attest::MeasurementContext{dev.id, challenge, 7});
    m.set_digest_cache(use_cache);
    std::vector<std::size_t> all(g.blocks);
    for (std::size_t b = 0; b < g.blocks; ++b) all[b] = b;
    m.visit_blocks(all, 0);
    return m.finalize();
  };
  (void)measure_once(&cache);
  c.measure = per_call(tracer, "calib.attest.prover.measure", [&] {
    g_sink = g_sink + measure_once(&cache)[0];
  });

  attest::Report report;
  report.device_id = dev.id;
  report.challenge = challenge;
  report.counter = 7;
  report.measurement = measure_once(&cache);
  attest::authenticate_report(report, key);
  support::Bytes report_wire;
  c.wire_encode = per_call(tracer, "calib.attest.report.wire_encode", [&] {
    report_wire = attest::serialize_report_wire(report);
  });
  c.wire_decode = per_call(tracer, "calib.attest.report.wire_decode", [&] {
    g_sink = g_sink + (attest::parse_report_wire(report_wire) ? 1 : 0);
  });
  c.verify = per_call(tracer, "calib.attest.verifier.verify", [&] {
    verifier.reset_counter();
    g_sink = g_sink + (verifier.verify(report, /*expect_challenge=*/false).ok() ? 1 : 0);
  });

  attest::BlockDigester digester(attest::MacKind::kHmac, crypto::HashKind::kSha256, key);
  std::vector<support::ByteView> views;
  std::vector<attest::Digest> digests(g.blocks);
  std::vector<attest::Digest*> outs;
  for (std::size_t b = 0; b < g.blocks; ++b) {
    views.push_back(device.memory().block_view(b));
    outs.push_back(&digests[b]);
  }
  c.block_digest = per_call(tracer, "calib.crypto.block_digest", [&] {
                     digester.digest_batch(views, outs);
                     g_sink = g_sink + digests[0].view()[0];
                   }) /
                   static_cast<double>(g.blocks);

  sim::Simulator queue;
  for (std::size_t i = 0; i < g.event_depth; ++i) {
    queue.schedule_at(~sim::Time{0} / 2, [] {});
  }
  c.event = per_call(tracer, "calib.sim.event", [&] {
    queue.schedule_in(1, [] { g_sink = g_sink + 1; });
    queue.run(1);
  });

  const support::Bytes payload = pattern_bytes(g.write_size, 0x777269);
  std::size_t next_addr = 0;
  sim::Time t = 0;
  c.memory_write = per_call(tracer, "calib.sim.memory.write", [&] {
    device.memory().write(next_addr, payload, ++t, sim::Actor::kApplication);
    next_addr += g.write_size;
    if (next_addr + g.write_size > dev.memory_size) next_addr = 0;
  });
  return c;
}

double calibrate_consistency(const Geometry& g, std::size_t writes, Tracer& tracer) {
  sim::Simulator simulator;
  sim::DeviceConfig dev;
  dev.id = "prv-calib";
  dev.memory_size = g.blocks * g.block_size;
  dev.block_size = g.block_size;
  sim::Device device(simulator, dev);
  const support::Bytes payload = pattern_bytes(g.write_size, 0x777269);
  support::Xoshiro256 rng(0x636f6e);
  const sim::Duration span = sim::kSecond;
  for (std::size_t i = 0; i < writes; ++i) {
    const std::size_t block = rng.below(g.blocks);
    const std::size_t offset = rng.below(g.block_size - g.write_size + 1);
    device.memory().write(block * g.block_size + offset, payload,
                          span * i / std::max<std::size_t>(writes, 1),
                          sim::Actor::kApplication);
  }
  attest::AttestationResult result;
  result.t_s = 10 * sim::kMillisecond;
  const sim::Duration block_cost = 100 * sim::kMicrosecond;
  for (std::size_t b = 0; b < g.blocks; ++b) {
    result.order.push_back(b);
    result.visit_times.emplace_back(result.t_s + (b + 1) * block_cost);
  }
  result.t_e = result.t_s + (g.blocks + 1) * block_cost;
  result.t_r = result.t_e;
  return per_call(tracer, "calib.locking.consistency", [&] {
    locking::ConsistencyAnalyzer analyzer(result, device.memory().write_log(), 0);
    g_sink = g_sink + (analyzer.verdict().at_ts ? 1 : 0);
  });
}

}  // namespace perfbench
