#pragma once
/// \file metrics.hpp
/// The metric names and units the benchmark prints; BENCHMARK.json at the
/// repository root declares the same lists (run.py checks they agree).

#include <array>
#include <string_view>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Printed by every untraced run.
inline constexpr std::array<MetricSpec, 5> kEndToEnd = {{
    {"rounds_per_host_s", "1/s"},
    {"round_host_ms.p50", "ms"},
    {"round_host_ms.tail", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
}};

/// Printed by every traced run.  A count or ratio a workload cannot
/// observe from outside reads 0 there (README.md lists which).
inline constexpr std::array<MetricSpec, 34> kPerLayer = {{
    {"fleet.setup_s", "s"},
    {"fleet.run_s", "s"},
    {"fleet.admission_events", "count"},
    {"fleet.wakes", "count"},
    {"fleet.hibernations", "count"},
    {"fleet.live_stacks_high_water", "count"},
    {"fleet.wake_us", "us"},
    {"attest.verifier.issue_challenge_us", "us"},
    {"attest.wire.seal_us", "us"},
    {"attest.wire.open_us", "us"},
    {"attest.report.wire_encode_us", "us"},
    {"attest.report.wire_decode_us", "us"},
    {"attest.verifier.verify_us", "us"},
    {"crypto.hmac_short_us", "us"},
    {"crypto.drbg.instantiate_us", "us"},
    {"crypto.drbg.generate_us", "us"},
    {"attest.session.attempts_per_round", "ratio"},
    {"attest.session.decisive_ratio", "ratio"},
    {"sim.link.sent", "count"},
    {"sim.link.dropped", "count"},
    {"sim.link.duplicated", "count"},
    {"sim.link.corrupted", "count"},
    {"sim.link.reordered", "count"},
    {"attest.prover.measure_ms", "ms"},
    {"attest.digest_cache.hit_ratio", "ratio"},
    {"crypto.block_digest_us", "us"},
    {"attest.golden_build_s", "s"},
    {"sim.event_ns", "ns"},
    {"sim.memory.write_ns", "ns"},
    {"sim.writes_per_round", "count"},
    {"locking.consistency_us", "us"},
    {"exp.pool_overhead_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead", "ratio"},
}};

}  // namespace perfbench
