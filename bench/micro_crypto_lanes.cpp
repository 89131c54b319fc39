/// Multi-lane digest gate: identity, throughput and per-block MAC cost for
/// the lane-packed crypto hot path (src/crypto/lanes.hpp).
///
/// Three sections, all folded into BENCH_crypto_lanes.json:
///
///  1. Identity sweep — every (hash, pack size, length) cell, uniform and
///     staggered per-lane lengths, must produce digests byte-identical to
///     the scalar path through digest_many and through every lane kernel
///     this host runs that takes the pack (lane_detail::runnable_kernels:
///     the baseline packs always, AVX2 and the SHA-NI pairs where active).
///     The cell count and a fingerprint of the scalar digests are the same
///     on every host, so the baseline gate catches silent digest drift
///     across platforms, not just lane/scalar divergence.
///  2. Lane throughput — every runnable kernel, fed packs of its full
///     width, against a scalar loop.  The kernel and the scalar loop are
///     timed in alternating rounds and each side keeps its best, so a
///     stall in one round cannot decide the ratio.  Exits non-zero unless
///     portable 4-way SHA-256 is at least 2x the scalar loop.  The SHA-256
///     scalar reference is the portable core, explicitly: that is what the
///     2x bar was set against, while Sha256 itself runs the SHA-NI kernel
///     on CPUs with the SHA extensions.  There, the SHA-NI rows (one
///     stream through Sha256, pairs through the lane kernel) are
///     informational and kept out of the committed baseline, which a CPU
///     without SHA-NI must also meet.
///  3. Per-block MAC cost — CBC-MAC vs HMAC-SHA256 vs BLAKE2s through
///     BlockDigester::digest at the exact measurement block sizes (64 B
///     fleet blocks, 4096 B micro_measurement blocks), in blocks/s.
///
/// Wall-clock leaves ("seconds", "per_s") are machine-dependent; CI diffs
/// the artifact with those ignored and only the deterministic leaves and
/// (loosely) the speedups gated — see .github/workflows/ci.yml.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/attest/measurement.hpp"
#include "src/crypto/hash.hpp"
#include "src/crypto/lanes.hpp"
#include "src/crypto/sha256.hpp"
#include "src/crypto/sha256_core.hpp"
#include "src/obs/bench_io.hpp"
#include "src/obs/metrics.hpp"
#include "src/support/rng.hpp"
#include "src/support/table.hpp"

using namespace rasc;
using crypto::lane_detail::LaneKernel;

namespace {

bool expect(bool condition, const char* what) {
  std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what);
  return condition;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string hash_label(crypto::HashKind kind) {
  return kind == crypto::HashKind::kSha256 ? "sha256" : "blake2s";
}

/// Metric-name form of a kernel name ("sha-ni" -> "sha_ni").
std::string leaf_name(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// --- 1. identity -----------------------------------------------------------

/// Check one pack of `pack` messages per length in `lens` (uniform, then
/// staggered) through digest_many and every runnable kernel at least
/// `pack` wide.  Returns cells checked (one per message); a cell fails when
/// any path disagrees with the scalar digest.  Folds every scalar digest
/// into `fingerprint`.
std::size_t identity_cells(crypto::HashKind kind, std::size_t pack,
                           const std::vector<std::size_t>& lens, std::size_t& failures,
                           std::uint64_t& fingerprint) {
  const std::size_t digest_size = crypto::hash_digest_size(kind);
  auto hasher = crypto::make_hash(kind);
  std::size_t cells = 0;
  // One uniform pack per length plus one staggered pack ((len*(l+1))/pack
  // per lane) — the staggered pack forces the divergent scalar-tail path.
  for (const bool staggered : {false, true}) {
    for (const std::size_t len : lens) {
      std::vector<support::Bytes> messages(pack);
      std::vector<support::Bytes> expected(pack, support::Bytes(digest_size));
      std::vector<support::Bytes> actual(pack, support::Bytes(digest_size));
      std::vector<support::ByteView> views(pack);
      std::vector<support::MutableByteView> outs(actual.begin(), actual.end());
      for (std::size_t l = 0; l < pack; ++l) {
        const std::size_t lane_len = staggered ? (len * (l + 1)) / pack : len;
        messages[l] = support::random_bytes(0x1a5e + 977 * len + l, lane_len);
        crypto::hash_oneshot_into(*hasher, messages[l],
                                  support::MutableByteView(expected[l]));
        views[l] = messages[l];
        for (std::size_t i = 0; i + 8 <= digest_size; i += 8) {
          std::uint64_t word = 0;
          for (std::size_t b = 0; b < 8; ++b) {
            word = (word << 8) | expected[l][i + b];
          }
          // Multiply-accumulate (not XOR): repeated identical digests must
          // not cancel out of the fold.
          fingerprint = fingerprint * 0x100000001b3ull + word;
        }
      }
      std::vector<bool> diverged(pack, false);
      const auto compare = [&] {
        for (std::size_t l = 0; l < pack; ++l) {
          if (actual[l] != expected[l]) diverged[l] = true;
          std::fill(actual[l].begin(), actual[l].end(), 0);
        }
      };
      crypto::digest_many(kind, views, outs);
      compare();
      for (const LaneKernel& kernel : crypto::lane_detail::runnable_kernels(kind)) {
        if (kernel.width < pack) continue;
        kernel.digest(views.data(), outs.data(), pack);
        compare();
      }
      cells += pack;
      failures +=
          static_cast<std::size_t>(std::count(diverged.begin(), diverged.end(), true));
    }
  }
  return cells;
}

// --- 2. throughput ---------------------------------------------------------

constexpr std::size_t kMsgBytes = 4096;
constexpr std::size_t kMsgCount = 2048;  ///< per rep; 8 MiB hashed per rep
constexpr int kReps = 7;                 ///< best-of, for noisy machines

struct Throughput {
  double seconds = 1e300;  ///< best rep
  double mb_per_s = 0.0;

  void record(double rep_seconds) {
    seconds = std::min(seconds, rep_seconds);
    mb_per_s = static_cast<double>(kMsgBytes * kMsgCount) / seconds / 1e6;
  }
};

double time_rep(const std::function<void()>& rep) {
  const double start = now_seconds();
  rep();
  return now_seconds() - start;
}

/// Best-of-kReps for `candidate` and `reference`, timed in alternating
/// rounds so both sides see the same machine state.
std::pair<Throughput, Throughput> race(const std::function<void()>& candidate,
                                       const std::function<void()>& reference) {
  Throughput cand;
  Throughput ref;
  for (int r = 0; r < kReps; ++r) {
    ref.record(time_rep(reference));
    cand.record(time_rep(candidate));
  }
  return {cand, ref};
}

Throughput best_of(const std::function<void()>& rep) {
  Throughput t;
  for (int r = 0; r < kReps; ++r) t.record(time_rep(rep));
  return t;
}

/// One rep over the pool with one reused hash state (what BlockDigester's
/// scalar path does per block); for SHA-256 that is the active kernel.
std::function<void()> reused_state_rep(crypto::HashKind kind, const support::Bytes& pool,
                                       support::Bytes& sink) {
  return [&pool, &sink, hasher = std::shared_ptr<crypto::Hash>(crypto::make_hash(kind))] {
    const std::size_t digest_size = hasher->digest_size();
    for (std::size_t m = 0; m < kMsgCount; ++m) {
      crypto::hash_oneshot_into(
          *hasher, support::ByteView(pool.data() + m * kMsgBytes, kMsgBytes),
          support::MutableByteView(sink.data() + m * digest_size, digest_size));
    }
  };
}

/// One rep of a hash's scalar reference: the portable core for SHA-256
/// (the reference of the lane bar on every CPU), a reused state otherwise.
std::function<void()> scalar_rep(crypto::HashKind kind, const support::Bytes& pool,
                                 support::Bytes& sink) {
  if (kind != crypto::HashKind::kSha256) return reused_state_rep(kind, pool, sink);
  return [&pool, &sink] {
    for (std::size_t m = 0; m < kMsgCount; ++m) {
      auto state = std::to_array(crypto::detail::kSha256Iv);
      crypto::detail::sha256_finish_portable(state.data(), pool.data() + m * kMsgBytes,
                                             kMsgBytes, kMsgBytes,
                                             sink.data() + m * crypto::Sha256::kDigestSize);
    }
  };
}

/// One rep of `kernel` over the pool in packs of its full width.
std::function<void()> kernel_rep(crypto::HashKind kind, const LaneKernel& kernel,
                                 const support::Bytes& pool, support::Bytes& sink) {
  return [&kernel, &pool, &sink, digest_size = crypto::hash_digest_size(kind)] {
    support::ByteView views[8];
    support::MutableByteView outs[8];
    for (std::size_t m = 0; m + kernel.width <= kMsgCount; m += kernel.width) {
      for (std::size_t l = 0; l < kernel.width; ++l) {
        views[l] = support::ByteView(pool.data() + (m + l) * kMsgBytes, kMsgBytes);
        outs[l] =
            support::MutableByteView(sink.data() + (m + l) * digest_size, digest_size);
      }
      kernel.digest(views, outs, kernel.width);
    }
  };
}

// --- 3. per-block MAC cost -------------------------------------------------

double block_mac_blocks_per_s(attest::MacKind mac, crypto::HashKind hash,
                              const support::Bytes& key, std::size_t block_size,
                              const support::Bytes& pool) {
  attest::BlockDigester digester(mac, hash, key);
  attest::Digest out;
  const std::size_t blocks = pool.size() / block_size;
  const Throughput t = best_of([&] {
    // Same total bytes as the lane section so one rep is comparable.
    for (std::size_t pass = 0; pass * blocks * block_size <
                               kMsgBytes * kMsgCount;
         ++pass) {
      for (std::size_t b = 0; b < blocks; ++b) {
        digester.digest(support::ByteView(pool.data() + b * block_size, block_size),
                        out);
      }
    }
  });
  const double passes =
      static_cast<double>(kMsgBytes * kMsgCount) / (blocks * block_size);
  return static_cast<double>(blocks) * passes / t.seconds;
}

}  // namespace

int main() {
  const std::vector<crypto::HashKind> kinds = {crypto::HashKind::kSha256,
                                               crypto::HashKind::kBlake2s};
  std::printf("=== multi-lane digest gate ===\n");
  std::printf("sha-256 kernel: %s\n", crypto::sha256_kernel_name());
  for (const auto kind : kinds) {
    std::string names;
    for (const LaneKernel& kernel : crypto::lane_detail::runnable_kernels(kind)) {
      names += (names.empty() ? "" : ", ") + std::string(kernel.name) + " x" +
               std::to_string(kernel.width);
    }
    std::printf("%s lane kernels: %s (digest_many runs %s)\n", hash_label(kind).c_str(),
                names.c_str(), crypto::lane_kernel_name(kind));
  }
  std::printf("\n");

  obs::MetricsRegistry registry;
  bool ok = true;

  const std::vector<std::size_t> lens = {0, 1, 55, 63, 64, 65, 127, 128, 4096, 5000};

  // 1. identity
  std::size_t cells = 0;
  std::size_t failures = 0;
  std::uint64_t fingerprint = 0;
  for (const auto kind : kinds) {
    for (const std::size_t pack : {2, 4, 8}) {
      cells += identity_cells(kind, pack, lens, failures, fingerprint);
    }
  }
  registry.gauge("crypto_lanes.identity_cells").set(static_cast<double>(cells));
  registry.gauge("crypto_lanes.identity_failures").set(static_cast<double>(failures));
  // Fold to 52 bits so the value survives the double-typed metrics gauge.
  registry.gauge("crypto_lanes.digest_fingerprint")
      .set(static_cast<double>(fingerprint & ((std::uint64_t{1} << 52) - 1)));
  char line[128];
  std::snprintf(line, sizeof(line), "lane digests byte-identical to scalar (%zu cells)",
                cells);
  ok &= expect(failures == 0, line);

  // 2. throughput: each row raced against the hash's scalar reference
  const support::Bytes pool = support::random_bytes(0xfeed, kMsgBytes * kMsgCount);
  support::Bytes sink(kMsgCount * 32);
  support::Bytes ref_sink(kMsgCount * 32);
  double sha256_portable_x4 = 0.0;
  support::Table table({"hash", "kernel", "lanes", "best s", "MB/s", "speedup"});
  for (const auto kind : kinds) {
    const std::string label = hash_label(kind);
    const bool sha = kind == crypto::HashKind::kSha256;
    const auto reference = scalar_rep(kind, pool, ref_sink);
    struct Row {
      std::string name;
      std::size_t lanes;
      std::function<void()> rep;
    };
    std::vector<Row> rows;
    if (sha && crypto::sha256_hardware_active()) {
      rows.push_back({"sha-ni", 1, reused_state_rep(kind, pool, sink)});  // one stream
    }
    for (const LaneKernel& kernel : crypto::lane_detail::runnable_kernels(kind)) {
      rows.push_back({kernel.name, kernel.width, kernel_rep(kind, kernel, pool, sink)});
    }
    // Each row races the scalar reference; the scalar row (last) reports
    // the reference's best over all races.
    Throughput scalar;
    for (const Row& row : rows) {
      const auto [pack, ref] = race(row.rep, reference);
      scalar.record(ref.seconds);
      const double speedup = ref.seconds / pack.seconds;
      const std::string leaf = "crypto_lanes." + label + "." + leaf_name(row.name) +
                               "_x" + std::to_string(row.lanes);
      registry.gauge(leaf + "_speedup").set(speedup);
      registry.gauge(leaf + "_mb_per_s").set(pack.mb_per_s);
      if (sha && row.name == "portable") sha256_portable_x4 = speedup;
      table.add_row({label, row.name, std::to_string(row.lanes),
                     support::fmt_double(pack.seconds, 4),
                     support::fmt_double(pack.mb_per_s, 1),
                     support::fmt_double(speedup, 2)});
    }
    registry.gauge("crypto_lanes." + label + ".scalar_seconds").set(scalar.seconds);
    registry.gauge("crypto_lanes." + label + ".scalar_mb_per_s").set(scalar.mb_per_s);
    table.add_row({label, sha ? "portable core" : "scalar", "1",
                   support::fmt_double(scalar.seconds, 4),
                   support::fmt_double(scalar.mb_per_s, 1), "1.0"});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::snprintf(line, sizeof(line),
                "portable 4-way SHA-256 >= 2x scalar (measured %.2fx)",
                sha256_portable_x4);
  ok &= expect(sha256_portable_x4 >= 2.0, line);

  // 3. per-block MAC cost at the measurement block sizes
  const support::Bytes key = support::random_bytes(0x6e7, 16);
  support::Table mac_table({"F", "block B", "blocks/s"});
  for (const std::size_t block_size : {std::size_t{64}, std::size_t{4096}}) {
    struct Row {
      const char* label;
      attest::MacKind mac;
      crypto::HashKind hash;
    };
    const Row rows[] = {
        {"cbcmac_aes", attest::MacKind::kCbcMac, crypto::HashKind::kSha256},
        {"hash_sha256", attest::MacKind::kHmac, crypto::HashKind::kSha256},
        {"hash_blake2s", attest::MacKind::kHmac, crypto::HashKind::kBlake2s},
    };
    for (const Row& row : rows) {
      const double bps = block_mac_blocks_per_s(row.mac, row.hash, key, block_size, pool);
      registry
          .gauge("crypto_lanes.block_mac." + std::string(row.label) + "_" +
                 std::to_string(block_size) + "_blocks_per_s")
          .set(bps);
      mac_table.add_row({row.label, std::to_string(block_size),
                         support::fmt_double(bps / 1e3, 1) + "k"});
    }
  }
  std::printf("%s\n", mac_table.render().c_str());

  const std::string path = obs::write_bench_json(registry, "crypto_lanes");
  if (!path.empty()) std::printf("machine-readable results: %s\n", path.c_str());

  if (!ok) {
    std::fprintf(stderr, "FAIL: lane identity or speedup gate failed\n");
    return 1;
  }
  return 0;
}
