/// SHA-256 block kernel differential tests: the dispatched kernels (SHA-NI
/// single and 2-way streams on a CPU with the SHA extensions, the portable
/// core otherwise) must agree with the portable compression loop on every
/// input, and digest_many must agree with a portable-core one-shot.  Runs
/// everywhere: without SHA extensions the dispatcher is compared against
/// the portable core it falls back to.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <vector>

#include "src/crypto/lanes.hpp"
#include "src/crypto/sha256.hpp"
#include "src/crypto/sha256_core.hpp"
#include "src/support/rng.hpp"

namespace rasc::crypto {
namespace {

using State = std::array<std::uint32_t, 8>;

State random_state(support::Xoshiro256& rng) {
  State s;
  for (auto& word : s) word = static_cast<std::uint32_t>(rng());
  return s;
}

State portable_loop(State s, const std::uint8_t* p, std::size_t nblocks) {
  for (std::size_t b = 0; b < nblocks; ++b) detail::sha256_compress(s.data(), p + 64 * b);
  return s;
}

support::Bytes portable_digest(support::ByteView msg) {
  auto s = std::to_array(detail::kSha256Iv);
  support::Bytes out(Sha256::kDigestSize);
  detail::sha256_finish_portable(s.data(), msg.data(), msg.size(), msg.size(), out.data());
  return out;
}

TEST(Sha256Kernel, HardwareActiveIffCompiledInAndCpuidReportsSha) {
  bool cpu_has_sha = false;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  __builtin_cpu_init();
  cpu_has_sha = __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#endif
  const bool active = sha256_hardware_active();
  EXPECT_EQ(active, sha256_hardware_compiled() && cpu_has_sha);
  EXPECT_STREQ(sha256_kernel_name(), active ? "sha-ni" : "portable");
}

// With the hardware kernel active (pinned by the test above), the
// dispatchers below ARE the SHA-NI single and 2-way kernels.
TEST(Sha256Kernel, DispatchedBlocksMatchPortableLoop) {
  support::Xoshiro256 rng(0x5a256);
  const support::Bytes pool = support::random_bytes(0xb10c, 16 + 64 * 40);
  for (std::size_t nblocks = 0; nblocks <= 40; ++nblocks) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      const std::uint8_t* p = pool.data() + offset;
      const State start = random_state(rng);
      State single = start;
      detail::sha256_blocks(single.data(), p, nblocks);
      EXPECT_EQ(single, portable_loop(start, p, nblocks))
          << nblocks << " blocks at offset " << offset;

      // Two streams with distinct states and sources, one misaligned
      // against the other.
      const std::uint8_t* q = pool.data() + (15 - offset);
      const State start_b = random_state(rng);
      State a = start;
      State b = start_b;
      detail::sha256_blocks_x2(a.data(), b.data(), p, q, nblocks);
      EXPECT_EQ(a, portable_loop(start, p, nblocks)) << "2-way stream a, " << nblocks;
      EXPECT_EQ(b, portable_loop(start_b, q, nblocks)) << "2-way stream b, " << nblocks;
    }
  }
}

TEST(Sha256Kernel, StreamingMatchesPortableOneShotAcrossSplits) {
  support::Xoshiro256 rng(0x511c);
  for (std::size_t len = 0; len <= 300; len += 7) {
    const support::Bytes msg = support::random_bytes(len + 1, len);
    Sha256 h;
    std::size_t fed = 0;
    while (fed < len) {
      const std::size_t take = std::min<std::size_t>(len - fed, rng.below(130));
      h.update(support::ByteView(msg.data() + fed, take));
      fed += take;
    }
    support::Bytes out(Sha256::kDigestSize);
    h.finalize_into(out);
    EXPECT_EQ(out, portable_digest(msg)) << "len " << len;
  }
}

TEST(Sha256Kernel, DigestManyMatchesPortableOneShotOnUnequalPairs) {
  const std::size_t lens[] = {0, 1, 55, 56, 63, 64, 65, 127, 128, 4096, 5000};
  constexpr std::size_t kLens = std::size(lens);
  // Neighbours (the kernel's pairs) always differ in length: stride 1 pairs
  // near lengths (4096 with 5000: 64 common blocks), stride 4 far ones.
  for (const std::size_t stride : {1, 4}) {
    for (std::size_t count = 0; count <= 17; ++count) {
      std::vector<support::Bytes> msgs(count);
      std::vector<support::ByteView> views(count);
      std::vector<support::Bytes> digests(count, support::Bytes(Sha256::kDigestSize));
      std::vector<support::MutableByteView> outs(count);
      for (std::size_t i = 0; i < count; ++i) {
        msgs[i] = support::random_bytes(97 * count + i, lens[(stride * i + count) % kLens]);
        views[i] = msgs[i];
        outs[i] = digests[i];
      }
      digest_many(HashKind::kSha256, views, outs);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(digests[i], portable_digest(msgs[i]))
            << "stride " << stride << " count " << count << " message " << i << " ("
            << msgs[i].size() << " B)";
      }
    }
  }
}

TEST(Sha256Kernel, DigestManyMatchesPortableOneShotOnFullPacks) {
  // Batches of one full 16-pack, and of two plus a single message: the
  // AVX-512 kernel where it runs, the SHA-NI pairs or the lane packs
  // otherwise.  Equal lengths, then lengths staggered from lens[pick] up,
  // so the pack's common block count (0, 1 or 64) is the shortest
  // message's and the longer ones finish past it.
  const std::size_t lens[] = {0, 1, 55, 56, 63, 64, 65, 4096, 5000};
  constexpr std::size_t kLens = std::size(lens);
  for (const std::size_t count : {16, 33}) {
    for (std::size_t pick = 0; pick < kLens; ++pick) {
      for (const bool staggered : {false, true}) {
        std::vector<support::Bytes> msgs(count);
        std::vector<support::ByteView> views(count);
        std::vector<support::Bytes> digests(count, support::Bytes(Sha256::kDigestSize));
        std::vector<support::MutableByteView> outs(count);
        for (std::size_t i = 0; i < count; ++i) {
          const std::size_t len = lens[staggered ? pick + i % (kLens - pick) : pick];
          msgs[i] = support::random_bytes(0x16 * count + 131 * pick + i, len);
          views[i] = msgs[i];
          outs[i] = digests[i];
        }
        digest_many(HashKind::kSha256, views, outs);
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(digests[i], portable_digest(msgs[i]))
              << "count " << count << (staggered ? " staggered" : " equal") << " message "
              << i << " (" << msgs[i].size() << " B)";
        }
      }
    }
  }
}

}  // namespace
}  // namespace rasc::crypto
