#include "src/crypto/lanes.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/crypto/blake2b.hpp"
#include "src/crypto/blake2s.hpp"
#include "src/crypto/sha256.hpp"
#include "src/crypto/sha512.hpp"

#define RASC_LANES_NS lanes_base
#include "src/crypto/lanes_kernels.hpp"

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

/// The SHA-NI kernel: one hardware stream already outruns the widest lane
/// pack, so messages go in pairs through the 2-way kernel over the whole
/// blocks both have, then each finishes on a Sha256 resumed from its
/// chaining value.
void sha256_pairs(const support::ByteView* msgs, const support::MutableByteView* outs,
                  std::size_t count) {
  const auto finish = [](const Sha256::ChainingValue& cv, support::ByteView msg,
                         std::size_t done, support::MutableByteView out) {
    Sha256 h(cv, done);
    h.update(msg.subspan(done));
    h.finalize_into(out);
  };
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

/// The runnable kernels of one hash, fastest first.
struct KernelList {
  LaneKernel kernels[3];
  std::size_t size = 0;

  void add(const LaneKernel& kernel) { kernels[size++] = kernel; }
};

KernelList sha256_kernels() {
  KernelList list;
  if (sha256_hardware_active()) list.add({"sha-ni", 2, &sha256_pairs});
#if defined(RASC_CRYPTO_HAVE_AVX2)
  if (lane_detail::avx2_runtime()) {
    list.add({"avx2", 8, &lane_detail::sha256_lanes8_avx2});
  }
#endif
  list.add({"portable", 4, &lanes_base::sha256_digest_lanes<lanes_base::U32xN<4>>});
  return list;
}

KernelList blake2s_kernels() {
  KernelList list;
#if defined(RASC_CRYPTO_HAVE_AVX2)
  if (lane_detail::avx2_runtime()) {
    list.add({"avx2", 8, &lane_detail::blake2s_lanes8_avx2});
  }
#endif
  list.add({"vector", 8, &lanes_base::blake2s_digest_lanes<vu32x8>});
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

bool lanes_supported(HashKind kind) noexcept {
  return !lane_detail::runnable_kernels(kind).empty();
}

const char* lane_kernel_name(HashKind kind) noexcept {
  const auto kernels = lane_detail::runnable_kernels(kind);
  return kernels.empty() ? "scalar" : kernels.front().name;
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
  const std::size_t n = msgs.size();
  std::size_t i = 0;
  if (const auto kernels = lane_detail::runnable_kernels(kind); !kernels.empty()) {
    const LaneKernel& kernel = kernels.front();
    while (n - i >= 2) {
      const std::size_t pack = std::min(n - i, kernel.width);
      kernel.digest(msgs.data() + i, outs.data() + i, pack);
      i += pack;
    }
  }
  // What the kernel left — a single trailing message, or every message of
  // a kind without lanes — goes through a scalar hash.
  const support::ByteView* rest = msgs.data() + i;
  const support::MutableByteView* rest_outs = outs.data() + i;
  switch (kind) {
    case HashKind::kSha256: return digest_scalar<Sha256>(rest, rest_outs, n - i);
    case HashKind::kSha512: return digest_scalar<Sha512>(rest, rest_outs, n - i);
    case HashKind::kBlake2b: return digest_scalar<Blake2b>(rest, rest_outs, n - i);
    case HashKind::kBlake2s: return digest_scalar<Blake2s>(rest, rest_outs, n - i);
  }
}

}  // namespace rasc::crypto
