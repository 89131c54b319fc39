#pragma once
/// \file swarm.hpp
/// Collective attestation of interconnected device swarms (paper Section
/// 2.1: SEDA, LISA, SANA).  Devices form a spanning tree; an attestation
/// request floods down, each device measures itself in parallel, and
/// authenticated results aggregate bottom-up so the verifier handles one
/// report instead of N round trips.
///
/// Two protocols are modeled:
///  - kNaiveStar:      the single-prover baseline — Vrf attests each
///                     device one after another (no swarm support);
///  - kCollectiveTree: SEDA-style — parallel measurement + per-hop
///                     aggregation with an HMAC chain (failed devices are
///                     reported by id, LISA-alpha style).
///
/// Aggregation MACs are real HMAC-SHA-256 chains over per-node keys
/// derived from a group key, and the verifier authenticates the root
/// aggregate by recomputing the chain.

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/sim/simulator.hpp"
#include "src/support/bytes.hpp"

namespace rasc::swarm {

enum class SwarmProtocol {
  kNaiveStar,       ///< Vrf attests each device one after another
  kCollectiveTree,  ///< SEDA-style aggregate: one authenticated result
  kForwardingTree,  ///< LISA-style: per-device reports forwarded up the
                    ///< tree, Vrf verifies each (full information, O(n)
                    ///< verifier work, parallel measurement)
};

std::string swarm_protocol_name(SwarmProtocol protocol);

struct SwarmConfig {
  std::size_t device_count = 15;
  std::size_t branching = 2;  ///< spanning-tree fan-out
  /// Per-device measurement time (SMART-style MP over its own memory).
  sim::Duration measurement_time = 50 * sim::kMillisecond;
  sim::Duration hop_latency = 2 * sim::kMillisecond;  ///< per tree edge / per star leg
  /// Vrf-side work per individually-verified report (naive star), and per
  /// node when recomputing the aggregate chain (collective).
  sim::Duration vrf_verify_time = 200 * sim::kMicrosecond;
  /// How long a parent waits for a child subtree before declaring it
  /// absent (DARPA-style detection of physically removed devices).
  sim::Duration child_timeout = sim::from_seconds(2);
  support::Bytes group_key = support::to_bytes("swarm-group-key");
};

struct SwarmResult {
  bool completed = false;
  std::size_t devices = 0;
  std::size_t vrf_verifications = 0;  ///< crypto checks performed by Vrf
  std::size_t reported_good = 0;
  std::vector<std::size_t> failed_ids;  ///< devices whose measurement failed
  /// Devices that never answered (physically removed / destroyed) —
  /// includes whole subtrees cut off by a removed parent (DARPA [13]
  /// treats prolonged absence as evidence of a physical attack).
  std::vector<std::size_t> absent_ids;
  bool aggregate_authentic = false;     ///< MAC chain / per-report MACs valid
  sim::Duration total_time = 0;         ///< request sent -> verdict ready
  std::size_t messages = 0;             ///< link-level messages exchanged
};

/// Run one swarm attestation round; `infected` lists compromised device
/// ids (their measurements fail) and `removed` lists devices physically
/// absent (they never respond; their subtrees become unreachable).
/// Device 0 is the tree root / first star target.  Returns after the
/// simulation quiesces.
SwarmResult run_swarm_attestation(const SwarmConfig& config, SwarmProtocol protocol,
                                  const std::set<std::size_t>& infected,
                                  const std::set<std::size_t>& removed = {});

/// Tree depth for a device count and branching factor (diagnostics).
std::size_t tree_depth(std::size_t device_count, std::size_t branching);

}  // namespace rasc::swarm
