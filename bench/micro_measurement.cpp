/// Measurement hot path micro-bench: generation-tracked digest caching
/// under a dirty-fraction sweep.
///
/// For each dirty fraction, the prover re-measures the same device memory
/// repeatedly while an application dirties that fraction of blocks between
/// rounds.  With the cache, each round rehashes only the dirty blocks and
/// serves the rest from generation-matched cache slots; without it, every
/// round rehashes everything.  Both paths must produce byte-identical
/// measurements for every round — divergence is a correctness failure, not
/// noise, and exits non-zero.
///
/// A third column runs the same sweep through the Merkle-tree incremental
/// path (src/mtree) with the tree-mode prover's loop: per round the tree
/// names the blocks written since the last one (collect_dirty), those are
/// digested in one multi-lane batch and landed (apply_digest), and
/// O(dirty * log n) tree nodes are re-hashed (flush_tree); the *root*
/// stands in for the flat digest.  Tree and flat measurements live in
/// different MAC domains so their bytes differ by design; what must agree
/// byte-for-byte is the per-round *verdict* (measurement == the golden
/// expectation for that context), plus the incremental root must equal a
/// from-scratch MerkleTree::rebuild() over fresh digests.
///
/// Each column of a sweep point times all its rounds as one pass and keeps
/// the best of three passes, each from the same initial state.
///
/// Also runs the `measurement_cache` campaign (deterministic identity +
/// hit-rate aggregates through the exp engine) and folds everything into
/// BENCH_measurement.json.  Exits non-zero if any identity check fails, if
/// repeated measurement at <=10% dirty blocks is not at least 5x faster
/// with the cache than without, or if the tree path is not at least 50x
/// faster than uncached at <=1% dirty blocks.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "src/apps/campaign.hpp"
#include "src/attest/digest_cache.hpp"
#include "src/attest/golden.hpp"
#include "src/attest/measurement.hpp"
#include "src/attest/stack.hpp"
#include "src/crypto/lanes.hpp"
#include "src/crypto/sha256.hpp"
#include "src/exp/report.hpp"
#include "src/mtree/incremental.hpp"
#include "src/obs/bench_io.hpp"
#include "src/obs/journal.hpp"
#include "src/sim/memory.hpp"
#include "src/support/rng.hpp"
#include "src/support/table.hpp"

using namespace rasc;

namespace {

bool expect(bool condition, const char* what) {
  std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what);
  return condition;
}

constexpr std::size_t kBlocks = 256;
constexpr std::size_t kBlockSize = 4096;
constexpr std::size_t kRounds = 40;
constexpr int kRepeats = 3;  ///< best-of per column, for noisy machines

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Identical dirtying stream for every column of one sweep point.
void dirty_round(sim::DeviceMemory& memory, support::Xoshiro256& rng,
                 std::size_t dirty_blocks, std::size_t round) {
  for (std::size_t d = 0; d < dirty_blocks; ++d) {
    const std::size_t block = static_cast<std::size_t>(rng.below(kBlocks));
    const support::Bytes patch{static_cast<std::uint8_t>(rng.below(256))};
    memory.write(block * kBlockSize + static_cast<std::size_t>(rng.below(kBlockSize)),
                 patch, /*now=*/static_cast<sim::Time>(round), sim::Actor::kApplication);
  }
}

std::vector<std::size_t> every_block() {
  std::vector<std::size_t> all(kBlocks);
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

/// Digest `blocks` of `memory` in one multi-lane batch into `out`
/// (resized to blocks.size(), block i's digest at out[i]).
void digest_blocks(const sim::DeviceMemory& memory,
                   const std::vector<std::size_t>& blocks,
                   attest::BlockDigester& digester, std::vector<attest::Digest>& out) {
  std::vector<support::ByteView> views;
  std::vector<attest::Digest*> outs;
  out.resize(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    views.push_back(memory.block_view(blocks[i]));
    outs.push_back(&out[i]);
  }
  digester.digest_batch(views, outs);
}

/// One sweep point: run `kRounds` measure-dirty-measure cycles, returning
/// elapsed seconds; every round's measurement is appended to `out`.
/// `batch` routes visitation through the multi-lane visit_blocks path
/// (byte-identical by contract — checked against the scalar column below).
double run_rounds(sim::DeviceMemory& memory, attest::DigestCache* cache,
                  support::ByteView key, std::size_t dirty_blocks,
                  std::uint64_t rng_seed, std::vector<support::Bytes>& out,
                  attest::MacKind mac = attest::MacKind::kHmac,
                  bool batch = false) {
  support::Xoshiro256 rng(rng_seed);
  const std::vector<std::size_t> all_blocks = every_block();
  const double start = now_seconds();
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Dirty a random subset, then measure the whole memory.
    dirty_round(memory, rng, dirty_blocks, round);
    attest::Measurement m(memory, crypto::HashKind::kSha256, key,
                          attest::MeasurementContext{"prv-micro", {}, round + 1},
                          attest::Coverage{}, mac);
    m.set_digest_cache(cache);
    if (batch) {
      m.visit_blocks(all_blocks, /*now=*/0);
    } else {
      for (std::size_t b = 0; b < kBlocks; ++b) m.visit_block(b, /*now=*/0);
    }
    out.push_back(m.finalize());
  }
  return now_seconds() - start;
}

/// Same sweep point through the Merkle-tree incremental path: the same
/// dirtying stream, but each round re-digests only the blocks the tree
/// noted (one batch), flushes O(dirty * log n) tree nodes and MACs the
/// root — the tree-mode prover's loop.  Appends the per-round tree
/// measurement to `out`; returns elapsed seconds.
double run_tree_rounds(sim::DeviceMemory& memory, attest::BlockDigester& digester,
                       support::ByteView key, std::size_t dirty_blocks,
                       std::uint64_t rng_seed, std::vector<support::Bytes>& out,
                       mtree::IncrementalTree& tree) {
  support::Xoshiro256 rng(rng_seed);
  std::vector<attest::Digest> digests;
  const double start = now_seconds();
  for (std::size_t round = 0; round < kRounds; ++round) {
    dirty_round(memory, rng, dirty_blocks, round);
    const std::vector<std::size_t> dirty = tree.collect_dirty();
    digest_blocks(memory, dirty, digester, digests);
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      tree.apply_digest(dirty[i], digests[i]);
    }
    tree.flush_tree();
    out.push_back(attest::Measurement::combine_root(
        tree.root_bytes(), crypto::HashKind::kSha256, key,
        attest::MeasurementContext{"prv-micro", {}, round + 1},
        attest::MacKind::kHmac).to_bytes());
  }
  return now_seconds() - start;
}

}  // namespace

int main() {
  std::printf("=== measurement hot path: digest cache dirty-fraction sweep ===\n");
  std::printf("%zu blocks x %zu B, %zu measurement rounds per point\n", kBlocks,
              kBlockSize, kRounds);
  std::printf("sha-256 kernel: %s\n", crypto::sha256_kernel_name());
  std::printf("digest_many split: batches of >= %zu messages, parts of %zu, %zu helper threads\n\n",
              crypto::lane_detail::kSplitSize, crypto::lane_detail::kSplitPart,
              crypto::lane_detail::helper_count());

  const support::Bytes key = support::to_bytes("micro-measurement-key");
  obs::MetricsRegistry registry;
  bool ok = true;
  double speedup_at_10pct = 0.0;
  double batch_speedup_at_100pct = 0.0;
  double tree_speedup_at_1pct = 0.0;

  support::Table table({"dirty %", "cached s", "uncached s", "speedup",
                        "batch s", "batch spdup", "tree s", "tree spdup",
                        "hit rate", "identical"});
  for (const std::size_t dirty_pct : {0u, 1u, 5u, 10u, 25u, 50u, 100u}) {
    const std::size_t dirty_blocks = kBlocks * dirty_pct / 100;
    const support::Bytes image =
        support::random_bytes(0xbeef + dirty_pct, kBlocks * kBlockSize);
    const std::uint64_t stream_seed = 0xd127 + dirty_pct;
    attest::GoldenMeasurement golden(image, kBlockSize, crypto::HashKind::kSha256,
                                     key);
    attest::BlockDigester digester(attest::MacKind::kHmac, crypto::HashKind::kSha256,
                                   key);
    // Every column keeps its best of kRepeats, each repeat from the same
    // initial state, so one stalled pass cannot decide a ratio.
    double cached_s = 1e300, uncached_s = 1e300, batch_s = 1e300, tree_s = 1e300;
    bool identical = true, root_matches_rebuild = true, verdicts_identical = true;
    attest::DigestCache cache;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      // Identical initial contents and identical dirtying streams on all
      // four sides, so measurement k is comparable round-for-round.
      sim::DeviceMemory cached_mem(kBlocks * kBlockSize, kBlockSize);
      sim::DeviceMemory uncached_mem(kBlocks * kBlockSize, kBlockSize);
      sim::DeviceMemory batch_mem(kBlocks * kBlockSize, kBlockSize);
      sim::DeviceMemory tree_mem(kBlocks * kBlockSize, kBlockSize);
      cached_mem.load(image);
      uncached_mem.load(image);
      batch_mem.load(image);
      tree_mem.load(image);
      cache = attest::DigestCache(kBlocks);

      std::vector<support::Bytes> cached_results, uncached_results, batch_results,
          tree_results;
      cached_s = std::min(cached_s, run_rounds(cached_mem, &cache, key, dirty_blocks,
                                               stream_seed, cached_results));
      uncached_s = std::min(uncached_s, run_rounds(uncached_mem, nullptr, key,
                                                   dirty_blocks, stream_seed,
                                                   uncached_results));
      // Batch column: the same uncached measurement, but every round visits
      // through the multi-lane visit_blocks wave instead of the per-block
      // scalar loop.  Must be byte-identical to the scalar column.
      batch_s = std::min(batch_s, run_rounds(batch_mem, nullptr, key, dirty_blocks,
                                             stream_seed, batch_results,
                                             attest::MacKind::kHmac, /*batch=*/true));

      // Tree column: primed once outside the timed loop (the prover primes
      // at deployment), then the blocks the tree noted through the memory's
      // generation observer, exactly as the tree-mode prover runs.
      std::vector<attest::Digest> leaves;
      digest_blocks(tree_mem, every_block(), digester, leaves);
      mtree::IncrementalTree tree(tree_mem, crypto::HashKind::kSha256);
      tree.prime_with(leaves);
      tree_s = std::min(tree_s, run_tree_rounds(tree_mem, digester, key, dirty_blocks,
                                                stream_seed, tree_results, tree));

      identical &=
          cached_results == uncached_results && batch_results == uncached_results;

      // The incremental root must equal a from-scratch rebuild over the
      // final memory state — incrementality is an optimization, never a
      // different answer.
      digest_blocks(tree_mem, every_block(), digester, leaves);
      mtree::MerkleTree reference(kBlocks, crypto::HashKind::kSha256);
      for (std::size_t b = 0; b < kBlocks; ++b) reference.set_leaf(b, leaves[b]);
      reference.rebuild();
      root_matches_rebuild &= tree.root_bytes() == reference.root_bytes();

      // Flat and tree measurements differ byte-wise (separate MAC domains);
      // the per-round *verdicts* against the golden image must be identical.
      for (std::size_t round = 0; round < kRounds; ++round) {
        const attest::MeasurementContext context{"prv-micro", {}, round + 1};
        const bool flat_verdict = uncached_results[round] == golden.expected(context);
        const bool tree_verdict = tree_results[round] == golden.expected_tree(context);
        verdicts_identical &= flat_verdict == tree_verdict;
      }
    }
    const bool column_ok = identical && root_matches_rebuild && verdicts_identical;
    ok &= column_ok;

    const double speedup = cached_s > 0.0 ? uncached_s / cached_s : 0.0;
    if (dirty_pct == 10) speedup_at_10pct = speedup;
    const double batch_speedup = batch_s > 0.0 ? uncached_s / batch_s : 0.0;
    if (dirty_pct == 100) batch_speedup_at_100pct = batch_speedup;
    const double tree_speedup = tree_s > 0.0 ? uncached_s / tree_s : 0.0;
    if (dirty_pct == 1) tree_speedup_at_1pct = tree_speedup;
    attest::export_metrics(registry, cache);
    const double hit_rate =
        static_cast<double>(cache.hits()) /
        static_cast<double>(cache.hits() + cache.misses());
    // blocks/s make the scalar hot path attributable: the uncached row
    // digests every block every round regardless of dirty fraction.
    const double total_blocks = static_cast<double>(kRounds * kBlocks);
    const double uncached_bps = uncached_s > 0.0 ? total_blocks / uncached_s : 0.0;
    const double batch_bps = batch_s > 0.0 ? total_blocks / batch_s : 0.0;

    const std::string suffix = std::to_string(dirty_pct);
    registry.gauge("measurement.cached_seconds_dirty_" + suffix).set(cached_s);
    registry.gauge("measurement.uncached_seconds_dirty_" + suffix).set(uncached_s);
    registry.gauge("measurement.uncached_blocks_per_s_dirty_" + suffix)
        .set(uncached_bps);
    registry.gauge("measurement.speedup_dirty_" + suffix).set(speedup);
    registry.gauge("measurement.batch_seconds_dirty_" + suffix).set(batch_s);
    registry.gauge("measurement.batch_blocks_per_s_dirty_" + suffix).set(batch_bps);
    registry.gauge("measurement.batch_speedup_dirty_" + suffix).set(batch_speedup);
    registry.gauge("measurement.tree_seconds_dirty_" + suffix).set(tree_s);
    registry.gauge("measurement.tree_speedup_dirty_" + suffix).set(tree_speedup);
    registry.gauge("measurement.hit_rate_dirty_" + suffix).set(hit_rate);
    if (!identical) registry.counter("measurement.divergence").inc();
    if (!root_matches_rebuild || !verdicts_identical)
      registry.counter("measurement.tree_divergence").inc();

    table.add_row({std::to_string(dirty_pct), support::fmt_double(cached_s, 4),
                   support::fmt_double(uncached_s, 4), support::fmt_double(speedup, 1),
                   support::fmt_double(batch_s, 4),
                   support::fmt_double(batch_speedup, 1),
                   support::fmt_double(tree_s, 4), support::fmt_double(tree_speedup, 1),
                   support::fmt_double(hit_rate, 3), column_ok ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());

  // Per-MacKind scalar blocks/s at 100% dirty, so a regression in either
  // F's scalar path is attributable after the batch path lands (the batch
  // wave only covers the hash-based F; AES-CBC-MAC always runs scalar).
  {
    support::Table mac_table({"MacKind", "scalar blocks/s", "batch"});
    for (const attest::MacKind mac :
         {attest::MacKind::kHmac, attest::MacKind::kCbcMac}) {
      sim::DeviceMemory mem(kBlocks * kBlockSize, kBlockSize);
      mem.load(support::random_bytes(0xbeef, mem.size()));
      std::vector<support::Bytes> results;
      const double seconds =
          run_rounds(mem, nullptr, key, kBlocks, 0xd127, results, mac);
      const double bps =
          seconds > 0.0 ? static_cast<double>(kRounds * kBlocks) / seconds : 0.0;
      attest::BlockDigester digester(mac, crypto::HashKind::kSha256, key);
      std::string label = attest::mac_kind_name(mac);
      for (auto& c : label) c = c == '-' ? '_' : static_cast<char>(std::tolower(c));
      registry.gauge("measurement.scalar_blocks_per_s_" + label).set(bps);
      mac_table.add_row({attest::mac_kind_name(mac), support::fmt_double(bps, 0),
                         digester.batch_uses_lanes() ? "lanes" : "scalar"});
    }
    std::printf("%s\n", mac_table.render().c_str());
  }

  ok &= expect(speedup_at_10pct >= 5.0,
               "repeated measurement at 10% dirty blocks is >=5x faster cached");
  ok &= expect(batch_speedup_at_100pct > 1.0,
               "batched visit_blocks beats the per-block scalar loop at 100% dirty");
  ok &= expect(tree_speedup_at_1pct >= 50.0,
               "tree re-measurement at 1% dirty blocks is >=50x faster than uncached");

  // A detached flight recorder must be invisible on the measurement hot
  // path.  Time the disabled-path gate every instrumented site pays per
  // event (a pointer load + branch; volatile models the member re-load)
  // and hold it under 1% of one block digest.
  {
    obs::EventJournal* volatile journal = nullptr;
    constexpr std::size_t kGateIters = std::size_t{1} << 24;
    std::uint64_t armed = 0;
    const double gate_start = now_seconds();
    for (std::size_t i = 0; i < kGateIters; ++i) {
      if (obs::EventJournal* j = journal) {
        j->append(0, 0, 0, 0, obs::JournalEventKind::kCacheHit, i, 0);
        ++armed;
      }
    }
    const double per_gate_s = (now_seconds() - gate_start) / kGateIters;
    const double per_block_s =
        registry.gauge("measurement.uncached_seconds_dirty_100").value() /
        static_cast<double>(kRounds * kBlocks);
    const double overhead = per_block_s > 0.0 ? per_gate_s / per_block_s : 0.0;
    std::printf("\nnull-journal gate: %.3g ns/event vs %.4g us/block digest (%.5f%%)\n",
                per_gate_s * 1e9, per_block_s * 1e6, overhead * 100.0);
    registry.gauge("measurement.null_journal_gate_pct").set(overhead * 100.0);
    ok &= expect(armed == 0 && overhead < 0.01,
                 "disabled journal gate costs <1% of a block digest");
  }

  // Deterministic identity/hit-rate aggregates through the campaign
  // engine (the statistical counterpart of the wall-clock sweep above).
  std::printf("\n--- measurement_cache campaign ---\n");
  apps::MeasurementCacheCampaignOptions options;
  options.trials = 40;
  const exp::CampaignSpec spec = apps::make_measurement_cache_campaign(options);
  const exp::CampaignResult campaign = exp::run_campaign(spec);
  std::printf("%s", exp::campaign_table(campaign).render().c_str());
  ok &= exp::print_claims(spec, campaign);
  for (const auto& cell : campaign.cells) {
    registry.gauge("campaign.hit_rate_" + cell.point.label())
        .set(cell.values.at("hit_rate").mean());
    registry.gauge("campaign.identity_rate_" + cell.point.label())
        .set(cell.success_rate);
  }

  const std::string path = obs::write_bench_json(registry, "measurement");
  if (!path.empty()) std::printf("\nmachine-readable results: %s\n", path.c_str());

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: digest cache diverged or speedup below threshold\n");
    return 1;
  }
  return 0;
}
