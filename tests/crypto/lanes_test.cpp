/// Multi-lane digest identity: every lane kernel compiled into the build
/// and runnable on this CPU (the baseline packs, AVX2, the SHA-NI pairs,
/// the AVX-512 16-lane kernel),
/// and digest_many on the one it picks, must produce byte-identical digests
/// to the scalar path for every (hash, pack size, length) cell, including
/// staggered per-lane lengths and randomized fuzz — plus the concurrency
/// contract of the hot path.  The allocation contract is checked in
/// alloc_test.cpp, which counts operator new.

#include "src/crypto/lanes.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <thread>

#include "src/crypto/hash.hpp"
#include "src/crypto/sha256.hpp"
#include "src/exp/campaign.hpp"
#include "src/support/rng.hpp"

namespace {

using namespace rasc;
using crypto::lane_detail::LaneKernel;

constexpr crypto::HashKind kLaneKinds[] = {crypto::HashKind::kSha256,
                                           crypto::HashKind::kBlake2s};

/// Digest `messages` (at most kernel.width) through one kernel and compare
/// every lane against hash_oneshot.
void expect_kernel_identity(crypto::HashKind kind, const LaneKernel& kernel,
                            const std::vector<support::Bytes>& messages) {
  ASSERT_LE(messages.size(), kernel.width);
  const std::size_t digest_size = crypto::hash_digest_size(kind);
  std::vector<support::ByteView> views(messages.begin(), messages.end());
  std::vector<support::Bytes> actual(messages.size(), support::Bytes(digest_size));
  std::vector<support::MutableByteView> outs(actual.begin(), actual.end());
  kernel.digest(views.data(), outs.data(), messages.size());
  for (std::size_t l = 0; l < messages.size(); ++l) {
    EXPECT_EQ(actual[l], crypto::hash_oneshot(kind, messages[l]))
        << crypto::hash_name(kind) << " kernel=" << kernel.name
        << " pack=" << messages.size() << " lane=" << l << " len=" << messages[l].size();
  }
}

TEST(LaneKernels, MatchesScalarAcrossLengthMatrix) {
  // Boundary lengths: empty, sub-block, block +/- 1, two-block boundary,
  // multi-block, and large messages (SHA-256 two-tail-block threshold 56
  // and the BLAKE2s hold-back-one-byte boundary both covered).  Every pack
  // size a kernel takes, uniform and staggered.
  const std::size_t lens[] = {0, 1, 31, 55, 56, 63, 64, 65, 119, 127, 128, 129,
                              256, 4096, 5000};
  for (const auto kind : kLaneKinds) {
    for (const LaneKernel& kernel : crypto::lane_detail::runnable_kernels(kind)) {
      for (std::size_t pack = 1; pack <= kernel.width; ++pack) {
        for (const std::size_t len : lens) {
          std::vector<support::Bytes> uniform;
          std::vector<support::Bytes> staggered;
          for (std::size_t l = 0; l < pack; ++l) {
            uniform.push_back(support::random_bytes(0xfeed0 + 131 * len + l, len));
            staggered.push_back(
                support::random_bytes(0xfeed1 + 131 * len + l, (len * (l + 1)) / pack));
          }
          expect_kernel_identity(kind, kernel, uniform);
          expect_kernel_identity(kind, kernel, staggered);
        }
      }
    }
  }
}

TEST(LaneKernels, MatchesScalarOnRandomizedLengths) {
  support::Xoshiro256 rng(0x1a7e5);
  for (const auto kind : kLaneKinds) {
    for (const LaneKernel& kernel : crypto::lane_detail::runnable_kernels(kind)) {
      for (int iter = 0; iter < 64; ++iter) {
        std::vector<support::Bytes> messages;
        for (std::size_t l = 0; l < kernel.width; ++l) {
          messages.push_back(support::random_bytes(
              0xabc + 1000 * iter + l, static_cast<std::size_t>(rng.below(700))));
        }
        expect_kernel_identity(kind, kernel, messages);
      }
    }
  }
}

TEST(DigestMany, SupportedKindsAndErrors) {
  EXPECT_TRUE(crypto::lanes_supported(crypto::HashKind::kSha256));
  EXPECT_TRUE(crypto::lanes_supported(crypto::HashKind::kBlake2s));
  EXPECT_FALSE(crypto::lanes_supported(crypto::HashKind::kSha512));
  EXPECT_FALSE(crypto::lanes_supported(crypto::HashKind::kBlake2b));
  EXPECT_TRUE(crypto::lane_detail::runnable_kernels(crypto::HashKind::kSha512).empty());
  EXPECT_STREQ(crypto::lane_kernel_name(crypto::HashKind::kBlake2b), "scalar");

  // Mismatched output sizes and counts must be rejected, not truncated.
  const support::Bytes msg = support::random_bytes(1, 64);
  support::Bytes small(16);
  support::Bytes digest(32);
  const support::ByteView views[2] = {msg, msg};
  const support::MutableByteView outs[2] = {support::MutableByteView(small),
                                            support::MutableByteView(digest)};
  EXPECT_THROW(crypto::digest_many(crypto::HashKind::kSha256, views, outs),
               std::invalid_argument);
  EXPECT_THROW(crypto::digest_many(crypto::HashKind::kSha512, views, outs),
               std::invalid_argument);
  EXPECT_THROW(crypto::digest_many(crypto::HashKind::kBlake2s,
                                   std::span<const support::ByteView>(views, 2),
                                   std::span<const support::MutableByteView>(outs + 1, 1)),
               std::invalid_argument);
}

TEST(DigestMany, KernelTableFollowsBuildAndCpuid) {
  // digest_many offers packs to the runnable kernels in table order; the
  // baseline pack, which needs no ISA flag, is always there and always
  // last.  Only the AVX-512 kernel waits for a full pack.
  bool cpu_has_avx2 = false;
  bool cpu_has_avx512 = false;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  cpu_has_avx2 = __builtin_cpu_supports("avx2");
  cpu_has_avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
#endif
  for (const auto kind : kLaneKinds) {
    const auto kernels = crypto::lane_detail::runnable_kernels(kind);
    ASSERT_FALSE(kernels.empty());
    EXPECT_STREQ(crypto::lane_kernel_name(kind), kernels.front().name);
    const bool sha = kind == crypto::HashKind::kSha256;
    EXPECT_STREQ(kernels.back().name, sha ? "portable" : "vector");
    EXPECT_EQ(kernels.back().width, sha ? 4u : 8u);
    for (const LaneKernel& kernel : kernels) {
      EXPECT_TRUE(std::strcmp(kernel.name, "avx2") != 0 || cpu_has_avx2);
      const bool avx512 = std::strcmp(kernel.name, "avx512") == 0;
      EXPECT_EQ(kernel.min_pack, avx512 ? kernel.width : 2u) << kernel.name;
    }
  }
  auto sha256 = crypto::lane_detail::runnable_kernels(crypto::HashKind::kSha256);
  const bool avx512_first = std::strcmp(sha256.front().name, "avx512") == 0;
  EXPECT_EQ(avx512_first, crypto::lane_detail::sha256_avx512_compiled() && cpu_has_avx512);
  if (avx512_first) {
    EXPECT_EQ(sha256.front().width, 16u);
    sha256 = sha256.subspan(1);
  }
  // What the full packs leave goes where it went without AVX-512.
  ASSERT_FALSE(sha256.empty());
  EXPECT_EQ(std::strcmp(sha256.front().name, "sha-ni") == 0,
            crypto::sha256_hardware_active());
}

TEST(DigestMany, MatchesScalarForAnyCountAndKind) {
  // digest_many packs lane-capable kinds and digests the rest on a scalar
  // hash — identical bytes either way, for any batch size (including sizes
  // that leave a single message behind full packs, and one, two or no
  // full 16-packs with every remainder after them).
  for (const auto kind : crypto::kAllHashKinds) {
    const std::size_t digest_size = crypto::hash_digest_size(kind);
    for (std::size_t count = 0; count <= 40; ++count) {
      std::vector<support::Bytes> messages;
      std::vector<support::Bytes> actual(count, support::Bytes(digest_size));
      std::vector<support::ByteView> views;
      std::vector<support::MutableByteView> outs;
      for (std::size_t i = 0; i < count; ++i) {
        messages.push_back(support::random_bytes(0x9d + i, 37 * i + (i % 3)));
        views.push_back(messages[i]);
        outs.push_back(support::MutableByteView(actual[i]));
      }
      crypto::digest_many(kind, views, outs);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(actual[i], crypto::hash_oneshot(kind, messages[i]))
            << crypto::hash_name(kind) << " count=" << count << " i=" << i;
      }
    }
  }
}

/// `count` messages cut from one random pool, message i of lens[i % n]
/// bytes (one length: uniform; several: staggered).
std::vector<support::ByteView> cut_messages(const support::Bytes& pool, std::size_t count,
                                            std::span<const std::size_t> lens) {
  std::vector<support::ByteView> views;
  std::size_t at = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = lens[i % lens.size()];
    views.push_back(support::ByteView(pool).subspan(at, len));
    at += len;
  }
  return views;
}

/// digest_many over `views` into fresh outputs.
std::vector<support::Bytes> digest_all(crypto::HashKind kind,
                                       const std::vector<support::ByteView>& views) {
  std::vector<support::Bytes> actual(views.size(),
                                     support::Bytes(crypto::hash_digest_size(kind)));
  std::vector<support::MutableByteView> outs(actual.begin(), actual.end());
  crypto::digest_many(kind, views, outs);
  return actual;
}

TEST(DigestMany, SplitBatchesMatchOneShot) {
  // From one below the split size to three parts above it, each part
  // boundary +/-1: on a host with helpers every count from kSplitSize on
  // is cut into parts, and no digest may show where.
  using crypto::lane_detail::kSplitPart;
  using crypto::lane_detail::kSplitSize;
  std::vector<std::size_t> counts;
  for (std::size_t boundary = kSplitSize; boundary <= kSplitSize + 3 * kSplitPart;
       boundary += kSplitPart) {
    counts.insert(counts.end(), {boundary - 1, boundary, boundary + 1});
  }
  const std::size_t lens[] = {0, 63, 64, 4096, 4097};
  const support::Bytes pool = support::random_bytes(0x5b11, counts.back() * 4097);
  std::vector<std::vector<std::size_t>> shapes;
  for (const std::size_t len : lens) shapes.push_back({len});
  shapes.emplace_back(std::begin(lens), std::end(lens));
  for (const auto kind : {crypto::HashKind::kSha256, crypto::HashKind::kBlake2s,
                          crypto::HashKind::kSha512}) {
    for (const std::size_t count : counts) {
      for (const auto& shape : shapes) {
        const auto views = cut_messages(pool, count, shape);
        const auto actual = digest_all(kind, views);
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(actual[i], crypto::hash_oneshot(kind, views[i]))
              << crypto::hash_name(kind) << " count=" << count << " i=" << i
              << " lengths=" << (shape.size() == 1 ? "uniform" : "staggered")
              << " len=" << views[i].size();
        }
      }
    }
  }
}

TEST(DigestMany, ConcurrentSplitBatches) {
  // TSan payload for the helper pool: four callers split large batches at
  // the same moment, so they compete for the helpers, and a fifth calls
  // once they are under way, when every helper is taken: it must digest
  // its batch itself.  Every call returns, and every digest is its
  // one-shot.
  constexpr std::size_t kCallers = 5;
  const std::size_t count = crypto::lane_detail::kSplitSize + 3 * crypto::lane_detail::kSplitPart;
  const std::size_t lens[] = {4096, 64, 4097};
  std::vector<support::Bytes> pools;
  std::vector<std::vector<support::ByteView>> batches;
  for (std::size_t c = 0; c < kCallers; ++c) {
    pools.push_back(support::random_bytes(0xc0 + c, count * 4097));
  }
  for (std::size_t c = 0; c < kCallers; ++c) {
    batches.push_back(cut_messages(pools[c], count, lens));
  }
  std::vector<std::vector<support::Bytes>> results(kCallers);
  std::latch start(kCallers - 1);
  std::latch under_way(kCallers - 1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c + 1 < kCallers; ++c) {
    threads.emplace_back([&, c] {
      start.arrive_and_wait();
      under_way.count_down();
      results[c] = digest_all(crypto::HashKind::kSha256, batches[c]);
    });
  }
  threads.emplace_back([&] {
    under_way.wait();
    results.back() = digest_all(crypto::HashKind::kSha256, batches.back());
  });
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(results[c].size(), count) << "caller " << c;
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(results[c][i], crypto::hash_oneshot(crypto::HashKind::kSha256, batches[c][i]))
          << "caller " << c << " i=" << i;
    }
  }
}

TEST(DigestMany, ConcurrentBatchesFromShardPool) {
  // TSan payload: many shard-pool workers drive independent digest_many
  // batches concurrently (the fleet/golden usage pattern), racing on the
  // first-use kernel table too.  Each trial verifies its own digests
  // against the scalar path; the campaign engine asserts every trial
  // succeeded on every thread.
  exp::CampaignSpec spec;
  spec.name = "lane_concurrency";
  spec.trials_per_point = 64;
  spec.threads = 4;
  spec.shard_size = 4;
  spec.trial = [](const exp::GridPoint&, exp::TrialContext& context) {
    exp::TrialOutput out;
    for (const auto kind : kLaneKinds) {
      std::vector<support::Bytes> messages;
      support::ByteView views[5];
      support::Bytes actual[5];
      support::MutableByteView outs[5];
      const std::size_t digest_size = crypto::hash_digest_size(kind);
      for (std::size_t l = 0; l < 5; ++l) {
        messages.push_back(support::random_bytes(
            context.seed ^ (0x51ab + l), static_cast<std::size_t>(context.rng.below(300))));
        views[l] = messages[l];
        actual[l].resize(digest_size);
        outs[l] = support::MutableByteView(actual[l]);
      }
      crypto::digest_many(kind, views, outs);
      for (std::size_t l = 0; l < 5; ++l) {
        out.bernoulli(actual[l] == crypto::hash_oneshot(kind, messages[l]));
      }
    }
    out.require(out.successes == out.attempts,
                "lane digests diverged from scalar under concurrency");
    return out;
  };
  const exp::CampaignResult result = exp::run_campaign(spec);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].successes, result.cells[0].attempts);
}

}  // namespace
