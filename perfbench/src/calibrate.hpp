#pragma once
/// \file calibrate.hpp
/// Per-call host cost of rasc's public entry points, timed by the traced
/// run at one workload's own sizes.  Multiplied by the counts a workload
/// observes, these price the work that happens inside an opaque library
/// call (trace.hpp, Estimate).  Every cost is the median of several
/// batches, in seconds per call.

#include <cstddef>

#include "trace.hpp"

namespace perfbench {

/// Device geometry and host-side sizes the costs are timed at.
struct Geometry {
  std::size_t blocks = 4;
  std::size_t block_size = 64;
  std::size_t write_size = 1;    ///< bytes per sim::DeviceMemory::write
  std::size_t event_depth = 16;  ///< pending events while one is scheduled + fired
};

struct CallCosts {
  double hmac_short = 0;        ///< crypto::Hmac::compute over 64 B
  double drbg_instantiate = 0;  ///< crypto::HmacDrbg from an 8-byte seed
  double drbg_generate = 0;     ///< 16 bytes
  double wake = 0;              ///< Verifier(golden, key, seed) + restore_session_state
  double issue_challenge = 0;   ///< Verifier::issue_challenge(16)
  double seal = 0;              ///< seal_challenge_request
  double open = 0;              ///< open_challenge_request
  double wire_encode = 0;       ///< serialize_report_wire
  double wire_decode = 0;       ///< parse_report_wire
  double verify = 0;            ///< Verifier::verify (MAC + golden combine)
  double measure = 0;           ///< cached Measurement over every block + finalize
  double block_digest = 0;      ///< per block, BlockDigester::digest_batch
  double event = 0;             ///< Simulator schedule + fire at event_depth
  double memory_write = 0;      ///< one DeviceMemory::write of write_size bytes
  double golden_build = 0;      ///< GoldenMeasurement over the whole geometry
};

/// Time every entry point above; records one "calib.*" span per entry.
CallCosts calibrate(const Geometry& geometry, Tracer& tracer);

/// One locking::ConsistencyAnalyzer verdict over a write log of `writes`
/// records spread across one second of simulated time, on `geometry`.
double calibrate_consistency(const Geometry& geometry, std::size_t writes, Tracer& tracer);

}  // namespace perfbench
