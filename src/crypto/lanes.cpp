#include "src/crypto/lanes.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/crypto/blake2b.hpp"
#include "src/crypto/blake2s.hpp"
#include "src/crypto/lane_pool.hpp"
#include "src/crypto/sha256.hpp"
#include "src/crypto/sha512.hpp"

#define RASC_LANES_NS lanes_base
#include "src/crypto/lanes_kernels.hpp"

#if defined(RASC_CRYPTO_HAVE_AVX512)
#include "src/crypto/sha256_avx512.hpp"
#endif

namespace rasc::crypto {

namespace lane_detail {

// Scalar lane finisher.  Deliberately compiled in this baseline TU only:
// the AVX2 TU calls back into it for divergent-length tails, so tails
// never execute AVX2 instructions (SHA-256 tails likewise finish on
// detail::sha256_finish_portable in sha256.cpp).
void blake2s_finish_scalar(std::uint32_t h[8], const std::uint8_t* p, std::size_t rem,
                           std::size_t total, std::uint8_t* out32) {
  std::uint64_t t = static_cast<std::uint64_t>(total) - rem;
  while (rem > 64) {
    t += 64;
    detail::blake2s_compress(h, p, t, /*last=*/false);
    p += 64;
    rem -= 64;
  }
  std::uint8_t tail[64] = {};
  if (rem > 0) std::memcpy(tail, p, rem);  // p may be null when rem == 0
  detail::blake2s_compress(h, tail, total, /*last=*/true);
  for (int i = 0; i < 8; ++i) {
    support::put_u32_le(support::MutableByteView(out32 + 4 * i, 4), h[i]);
  }
}

}  // namespace lane_detail

namespace {

using lane_detail::LaneKernel;

// A GNU vector type needs no ISA flag: at baseline the compiler lowers
// each 32-byte op to a pair of the target's 128-bit ops (SSE2 on x86-64);
// the AVX2 TU compiles the same kernel body to 256-bit ops.
typedef std::uint32_t vu32x8 __attribute__((vector_size(32)));

/// Finish `msg` on a Sha256 resumed from `cv`, its chaining value after
/// the first `done` bytes (whole blocks): the rest of the blocks and the
/// padded tail run on the active block kernel.
void finish(const Sha256::ChainingValue& cv, support::ByteView msg, std::size_t done,
            support::MutableByteView out) {
  Sha256 h(cv, done);
  h.update(msg.subspan(done));
  h.finalize_into(out);
}

/// The SHA-NI kernel: one hardware stream already outruns the 8-lane
/// pack, so messages go in pairs through the 2-way kernel over the whole
/// blocks both have, then each finishes on a Sha256 resumed from its
/// chaining value.
void sha256_pairs(const support::ByteView* msgs, const support::MutableByteView* outs,
                  std::size_t count) {
  std::size_t i = 0;
  for (; i + 1 < count; i += 2) {
    const support::ByteView a = msgs[i];
    const support::ByteView b = msgs[i + 1];
    const std::size_t blocks = std::min(a.size(), b.size()) / Sha256::kBlockSize;
    auto cv_a = std::to_array(detail::kSha256Iv);
    auto cv_b = cv_a;
    detail::sha256_blocks_x2(cv_a.data(), cv_b.data(), a.data(), b.data(), blocks);
    finish(cv_a, a, blocks * Sha256::kBlockSize, outs[i]);
    finish(cv_b, b, blocks * Sha256::kBlockSize, outs[i + 1]);
  }
  if (i < count) finish(std::to_array(detail::kSha256Iv), msgs[i], 0, outs[i]);
}

#if defined(RASC_CRYPTO_HAVE_AVX512)
/// The AVX-512 kernel: sixteen messages in lockstep over the whole blocks
/// all of them have, then each finishes on a Sha256 resumed from its
/// chaining value.  A short pack costs a full one (the missing lanes hash
/// copies of message 0), so digest_many hands it only full packs.
void sha256_x16(const support::ByteView* msgs, const support::MutableByteView* outs,
                std::size_t count) {
  constexpr std::size_t kLanes = 16;
  const std::uint8_t* blocks[kLanes];
  std::size_t common = msgs[0].size();
  for (std::size_t l = 0; l < kLanes; ++l) {
    const support::ByteView msg = msgs[l < count ? l : 0];
    blocks[l] = msg.data();
    common = std::min(common, msg.size());
  }
  const std::size_t nblocks = common / Sha256::kBlockSize;
  alignas(64) std::uint32_t state[8][kLanes];
  for (std::size_t i = 0; i < 8; ++i) std::fill_n(state[i], kLanes, detail::kSha256Iv[i]);
  detail::sha256_blocks_avx512_x16(state, blocks, nblocks);
  for (std::size_t l = 0; l < count; ++l) {
    Sha256::ChainingValue cv;
    for (std::size_t i = 0; i < 8; ++i) cv[i] = state[i][l];
    finish(cv, msgs[l], nblocks * Sha256::kBlockSize, outs[l]);
  }
}
#endif

static_assert(lane_detail::kSplitPart % 16 == 0,
              "a split part must be whole packs of every kernel (widths 16, 8, 4, 2)");

/// The runnable kernels of one hash, fastest first.
struct KernelList {
  LaneKernel kernels[4];
  std::size_t size = 0;

  void add(const LaneKernel& kernel) { kernels[size++] = kernel; }
};

KernelList sha256_kernels() {
  KernelList list;
#if defined(RASC_CRYPTO_HAVE_AVX512)
  if (detail::avx512_runtime()) list.add({"avx512", 16, 16, &sha256_x16});
#endif
  if (sha256_hardware_active()) list.add({"sha-ni", 2, 2, &sha256_pairs});
#if defined(RASC_CRYPTO_HAVE_AVX2)
  if (lane_detail::avx2_runtime()) {
    list.add({"avx2", 8, 2, &lane_detail::sha256_lanes8_avx2});
  }
#endif
  list.add({"portable", 4, 2, &lanes_base::sha256_digest_lanes<lanes_base::U32xN<4>>});
  return list;
}

KernelList blake2s_kernels() {
  KernelList list;
#if defined(RASC_CRYPTO_HAVE_AVX2)
  if (lane_detail::avx2_runtime()) {
    list.add({"avx2", 8, 2, &lane_detail::blake2s_lanes8_avx2});
  }
#endif
  list.add({"vector", 8, 2, &lanes_base::blake2s_digest_lanes<vu32x8>});
  return list;
}

/// Digest msgs[i] into outs[i] on one H on the stack.
template <class H>
void digest_scalar(const support::ByteView* msgs, const support::MutableByteView* outs,
                   std::size_t count) {
  H h;
  for (std::size_t i = 0; i < count; ++i) {
    h.update(msgs[i]);
    h.finalize_into(outs[i]);
  }
}

}  // namespace

std::span<const LaneKernel> lane_detail::runnable_kernels(HashKind kind) noexcept {
  static const KernelList sha256 = sha256_kernels();
  static const KernelList blake2s = blake2s_kernels();
  switch (kind) {
    case HashKind::kSha256: return {sha256.kernels, sha256.size};
    case HashKind::kBlake2s: return {blake2s.kernels, blake2s.size};
    default: return {};
  }
}

bool lane_detail::sha256_avx512_compiled() noexcept {
#if defined(RASC_CRYPTO_HAVE_AVX512)
  return true;
#else
  return false;
#endif
}

bool lanes_supported(HashKind kind) noexcept {
  return !lane_detail::runnable_kernels(kind).empty();
}

const char* lane_kernel_name(HashKind kind) noexcept {
  const auto kernels = lane_detail::runnable_kernels(kind);
  return kernels.empty() ? "scalar" : kernels.front().name;
}

void lane_detail::digest_serial(HashKind kind, const support::ByteView* msgs,
                                const support::MutableByteView* outs,
                                std::size_t n) noexcept {
  std::size_t i = 0;
  // Full 16-packs to AVX-512 where it runs, then everything else of two
  // or more to the next kernel (whose min_pack is 2).
  for (const LaneKernel& kernel : lane_detail::runnable_kernels(kind)) {
    while (n - i >= kernel.min_pack) {
      const std::size_t pack = std::min(n - i, kernel.width);
      kernel.digest(msgs + i, outs + i, pack);
      i += pack;
    }
  }
  // What the kernels left — a single trailing message, or every message
  // of a kind without lanes — goes through a scalar hash.
  switch (kind) {
    case HashKind::kSha256: return digest_scalar<Sha256>(msgs + i, outs + i, n - i);
    case HashKind::kSha512: return digest_scalar<Sha512>(msgs + i, outs + i, n - i);
    case HashKind::kBlake2b: return digest_scalar<Blake2b>(msgs + i, outs + i, n - i);
    case HashKind::kBlake2s: return digest_scalar<Blake2s>(msgs + i, outs + i, n - i);
  }
}

void digest_many(HashKind kind, std::span<const support::ByteView> msgs,
                 std::span<const support::MutableByteView> outs) {
  if (msgs.size() != outs.size()) {
    throw std::invalid_argument("digest_many: msgs/outs size mismatch");
  }
  const std::size_t want = hash_digest_size(kind);
  for (const auto& out : outs) {
    if (out.size() != want) {
      throw std::invalid_argument("digest_many: output view must be digest_size bytes");
    }
  }
  if (msgs.size() < lane_detail::kSplitSize || lane_detail::helper_count() == 0) {
    return lane_detail::digest_serial(kind, msgs.data(), outs.data(), msgs.size());
  }
  lane_detail::digest_split(kind, msgs.data(), outs.data(), msgs.size());
}

}  // namespace rasc::crypto
