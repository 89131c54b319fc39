#include "src/swarm/swarm.hpp"

#include <algorithm>

#include "src/crypto/hmac.hpp"

namespace rasc::swarm {

namespace {

using support::Bytes;

constexpr crypto::HashKind kMacHash = crypto::HashKind::kSha256;

Bytes node_key(const Bytes& group_key, std::size_t id) {
  Bytes material = support::to_bytes("node-key");
  support::append_u64_be(material, id);
  return crypto::Hmac::compute(kMacHash, group_key, material);
}

/// Per-node authenticated result: MAC(node_key, nonce || id || ok ||
/// child_tag_1 || ... ) — leaves have no child tags; in the star protocol
/// there are never child tags.
Bytes node_tag(const Bytes& key, const Bytes& nonce, std::size_t id, bool ok,
               const std::vector<Bytes>& child_tags) {
  crypto::Hmac mac(kMacHash, key);
  mac.update(nonce);
  Bytes header;
  support::append_u64_be(header, id);
  header.push_back(ok ? 1 : 0);
  support::append_u64_be(header, child_tags.size());
  mac.update(header);
  for (const auto& tag : child_tags) mac.update(tag);
  return mac.finalize();
}

struct Node {
  std::size_t id = 0;
  bool infected = false;
  bool removed = false;
  bool reported = false;
  bool measured = false;
  std::size_t children_pending = 0;
  std::vector<std::size_t> child_absent;  // absent ids aggregated from subtree
  /// (child id, tag) pairs; sorted by id before aggregation so the MAC
  /// chain is deterministic regardless of subtree completion order.
  std::vector<std::pair<std::size_t, Bytes>> child_tags;
  std::vector<std::size_t> child_failed;  // aggregated failed ids from subtree
  std::vector<std::size_t> children;
};

}  // namespace

std::string swarm_protocol_name(SwarmProtocol protocol) {
  switch (protocol) {
    case SwarmProtocol::kNaiveStar: return "naive star (one-by-one)";
    case SwarmProtocol::kCollectiveTree: return "collective tree (SEDA-style)";
    case SwarmProtocol::kForwardingTree: return "forwarding tree (LISA-style)";
  }
  return "?";
}

std::size_t tree_depth(std::size_t device_count, std::size_t branching) {
  // In the implicit complete b-ary tree, the deepest node is the last one;
  // walk its parent chain.
  std::size_t depth = 0;
  std::size_t i = device_count - 1;
  while (i > 0) {
    i = (i - 1) / branching;
    ++depth;
  }
  return depth;
}

namespace {

SwarmResult run_collective(const SwarmConfig& config,
                           const std::set<std::size_t>& infected,
                           const std::set<std::size_t>& removed) {
  sim::Simulator simulator;
  SwarmResult result;
  result.devices = config.device_count;

  std::vector<Node> nodes(config.device_count);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].id = i;
    nodes[i].infected = infected.count(i) > 0;
    nodes[i].removed = removed.count(i) > 0;
    for (std::size_t c = i * config.branching + 1;
         c <= i * config.branching + config.branching && c < nodes.size(); ++c) {
      nodes[i].children.push_back(c);
    }
    nodes[i].children_pending = nodes[i].children.size();
  }

  const Bytes nonce = support::to_bytes("swarm-nonce-1");

  // All device ids in the subtree rooted at `id`.
  std::function<void(std::size_t, std::vector<std::size_t>&)> subtree =
      [&](std::size_t id, std::vector<std::size_t>& out) {
        out.push_back(id);
        for (std::size_t child : nodes[id].children) subtree(child, out);
      };

  // Subtree heights: a parent must wait long enough for its child to time
  // out on the child's own children first, or timeouts cascade upwards
  // and a single missing leaf condemns whole healthy subtrees.
  std::vector<std::size_t> height(nodes.size(), 0);
  for (std::size_t i = nodes.size(); i-- > 0;) {
    for (std::size_t child : nodes[i].children) {
      height[i] = std::max(height[i], height[child] + 1);
    }
  }

  // Forward declaration of the "node finished" handler.
  std::function<void(std::size_t)> try_report;

  auto send_up = [&](std::size_t id) {
    Node& node = nodes[id];
    std::sort(node.child_tags.begin(), node.child_tags.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Bytes> ordered_tags;
    ordered_tags.reserve(node.child_tags.size());
    for (auto& [cid, t] : node.child_tags) ordered_tags.push_back(t);
    const Bytes tag = node_tag(node_key(config.group_key, id), nonce, id,
                               !node.infected, ordered_tags);
    std::vector<std::size_t> failed = node.child_failed;
    if (node.infected) failed.push_back(id);
    std::sort(failed.begin(), failed.end());
    std::vector<std::size_t> absent = node.child_absent;
    std::sort(absent.begin(), absent.end());

    node.reported = true;
    ++result.messages;
    if (id == 0) {
      // Root -> Vrf: verify the aggregate chain by recomputation.
      simulator.schedule_in(
          config.hop_latency + config.vrf_verify_time * nodes.size(),
          [&, tag, failed, absent] {
            // Recompute expected tags bottom-up for the claimed fail and
            // absent sets (absent subtrees contribute no tags).
            std::vector<Bytes> expected(nodes.size());
            for (std::size_t i = nodes.size(); i-- > 0;) {
              if (std::binary_search(absent.begin(), absent.end(), i)) continue;
              std::vector<Bytes> child_tags;
              for (std::size_t c : nodes[i].children) {
                if (!std::binary_search(absent.begin(), absent.end(), c)) {
                  child_tags.push_back(expected[c]);
                }
              }
              const bool ok =
                  !std::binary_search(failed.begin(), failed.end(), i);
              expected[i] =
                  node_tag(node_key(config.group_key, i), nonce, i, ok, child_tags);
            }
            result.aggregate_authentic = support::ct_equal(expected[0], tag);
            result.vrf_verifications = nodes.size();  // chain recomputation
            result.failed_ids = failed;
            result.absent_ids = absent;
            result.reported_good = nodes.size() - failed.size() - absent.size();
            result.total_time = simulator.now();
            result.completed = true;
          });
      return;
    }
    const std::size_t parent = (id - 1) / config.branching;
    simulator.schedule_in(config.hop_latency, [&, parent, id, tag, failed, absent] {
      Node& p = nodes[parent];
      p.child_tags.emplace_back(id, tag);
      p.child_failed.insert(p.child_failed.end(), failed.begin(), failed.end());
      p.child_absent.insert(p.child_absent.end(), absent.begin(), absent.end());
      --p.children_pending;
      try_report(parent);
    });
  };

  try_report = [&](std::size_t id) {
    Node& node = nodes[id];
    if (!node.measured || node.children_pending > 0) return;
    send_up(id);
  };

  // Request floods down; each node starts measuring on arrival.  A
  // removed device swallows the request: it neither forwards nor answers,
  // and its parent's timeout declares the whole subtree absent.
  std::function<void(std::size_t, sim::Time)> arrive = [&](std::size_t id,
                                                           sim::Time at) {
    simulator.schedule_at(at, [&, id] {
      ++result.messages;
      Node& node = nodes[id];
      if (node.removed) return;  // physically gone
      for (std::size_t c : node.children) {
        arrive(c, simulator.now() + config.hop_latency);
        simulator.schedule_in(config.child_timeout * (height[c] + 1), [&, id, c] {
          // Child subtree never reported: declare it absent.
          if (nodes[c].reported) return;
          Node& parent = nodes[id];
          std::vector<std::size_t> lost;
          subtree(c, lost);
          parent.child_absent.insert(parent.child_absent.end(), lost.begin(),
                                     lost.end());
          nodes[c].reported = true;  // so a late report is ignored
          --parent.children_pending;
          try_report(id);
        });
      }
      simulator.schedule_in(config.measurement_time, [&, id] {
        nodes[id].measured = true;
        try_report(id);
      });
    });
  };
  if (!nodes[0].removed) {
    arrive(0, config.hop_latency);  // Vrf -> root
  } else {
    // The root itself is gone: Vrf times out and declares everything absent.
    simulator.schedule_in(config.child_timeout, [&] {
      std::vector<std::size_t> lost;
      subtree(0, lost);
      std::sort(lost.begin(), lost.end());
      result.absent_ids = lost;
      result.reported_good = 0;
      result.aggregate_authentic = false;
      result.total_time = simulator.now();
      result.completed = true;
    });
  }

  simulator.run();
  return result;
}

SwarmResult run_star(const SwarmConfig& config, const std::set<std::size_t>& infected,
                     const std::set<std::size_t>& removed) {
  sim::Simulator simulator;
  SwarmResult result;
  result.devices = config.device_count;
  const Bytes nonce = support::to_bytes("swarm-nonce-1");

  // Vrf attests devices sequentially: request, wait for measurement,
  // verify, move on.
  sim::Time clock = 0;
  for (std::size_t id = 0; id < config.device_count; ++id) {
    clock += config.hop_latency;  // request out
    result.messages += 1;
    if (removed.count(id) > 0) {
      clock += config.child_timeout;  // Vrf waits out the silence
      result.absent_ids.push_back(id);
      continue;
    }
    clock += config.measurement_time;       // device measures
    clock += config.hop_latency;            // report back
    clock += config.vrf_verify_time;        // Vrf checks the report MAC
    result.messages += 1;
    ++result.vrf_verifications;
    const bool infected_device = infected.count(id) > 0;
    // Verify the per-device report MAC (real crypto, as the tree does).
    const Bytes tag =
        node_tag(node_key(config.group_key, id), nonce, id, !infected_device, {});
    const Bytes expected =
        node_tag(node_key(config.group_key, id), nonce, id, !infected_device, {});
    if (!support::ct_equal(tag, expected)) continue;  // never happens for honest MACs
    if (infected_device) {
      result.failed_ids.push_back(id);
    } else {
      ++result.reported_good;
    }
  }
  simulator.run_until(clock);
  result.aggregate_authentic = true;
  result.total_time = simulator.now();
  result.completed = true;
  return result;
}

/// LISA-style forwarding: the request floods down the tree, every device
/// measures in parallel and its *individual* report is forwarded hop by
/// hop to the verifier, which authenticates each one.  Same latency
/// parallelism as the aggregate, full per-device information, but O(n)
/// messages near the root and O(n) verifier work.
SwarmResult run_forwarding(const SwarmConfig& config,
                           const std::set<std::size_t>& infected,
                           const std::set<std::size_t>& removed) {
  sim::Simulator simulator;
  SwarmResult result;
  result.devices = config.device_count;
  const Bytes nonce = support::to_bytes("swarm-nonce-1");

  // Depth of each node (hops to the verifier = depth + 1).
  std::vector<std::size_t> depth(config.device_count, 0);
  for (std::size_t i = 1; i < config.device_count; ++i) {
    depth[i] = depth[(i - 1) / config.branching] + 1;
  }
  // A node is reachable iff no ancestor (or itself) was removed.
  std::vector<bool> reachable(config.device_count, true);
  for (std::size_t i = 0; i < config.device_count; ++i) {
    const bool parent_ok = i == 0 ? true : reachable[(i - 1) / config.branching];
    reachable[i] = parent_ok && removed.count(i) == 0;
  }

  sim::Time vrf_busy_until = 0;
  std::size_t reports_expected = 0;
  for (std::size_t id = 0; id < config.device_count; ++id) {
    if (!reachable[id]) {
      result.absent_ids.push_back(id);
      continue;
    }
    ++reports_expected;
    // Request reaches the node after depth+1 hops; it measures, then the
    // report travels depth+1 hops back (forwarded by each ancestor).
    const sim::Duration hops = config.hop_latency * (depth[id] + 1);
    const sim::Time report_at = hops + config.measurement_time + hops;
    result.messages += 2 * (depth[id] + 1);
    const bool bad = infected.count(id) > 0;
    simulator.schedule_at(report_at, [&, id, bad] {
      // Vrf authenticates the per-device report (serialized at Vrf).
      const Bytes tag =
          node_tag(node_key(config.group_key, id), nonce, id, !bad, {});
      const Bytes expected =
          node_tag(node_key(config.group_key, id), nonce, id, !bad, {});
      const sim::Time start = std::max(simulator.now(), vrf_busy_until);
      vrf_busy_until = start + config.vrf_verify_time;
      ++result.vrf_verifications;
      if (!support::ct_equal(tag, expected)) return;
      if (bad) {
        result.failed_ids.push_back(id);
      } else {
        ++result.reported_good;
      }
    });
  }
  simulator.run();
  simulator.run_until(vrf_busy_until);
  std::sort(result.failed_ids.begin(), result.failed_ids.end());
  std::sort(result.absent_ids.begin(), result.absent_ids.end());
  result.aggregate_authentic = true;  // every report individually checked
  result.total_time = simulator.now();
  result.completed = true;
  return result;
}

}  // namespace

SwarmResult run_swarm_attestation(const SwarmConfig& config, SwarmProtocol protocol,
                                  const std::set<std::size_t>& infected,
                                  const std::set<std::size_t>& removed) {
  if (config.device_count == 0 || config.branching == 0) {
    throw std::invalid_argument("swarm needs devices and branching >= 1");
  }
  switch (protocol) {
    case SwarmProtocol::kCollectiveTree: return run_collective(config, infected, removed);
    case SwarmProtocol::kForwardingTree: return run_forwarding(config, infected, removed);
    case SwarmProtocol::kNaiveStar: return run_star(config, infected, removed);
  }
  throw std::invalid_argument("unknown SwarmProtocol");
}

}  // namespace rasc::swarm
