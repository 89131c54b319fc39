/// \file lanes_avx2.cpp
/// 8-lane kernels compiled with -mavx2 so the generic lockstep bodies lower
/// to 256-bit ops.  Lives in its own TU (and its own RASC_LANES_NS) so no
/// AVX2-compiled symbol can be ODR-merged into the baseline path; lanes.cpp
/// lists these kernels only after avx2_runtime() says the CPU is capable.
/// The entry points are declared in lanes_kernels.hpp.

#define RASC_LANES_NS lanes_avx2_impl
#include "src/crypto/lanes_kernels.hpp"

namespace rasc::crypto::lane_detail {

namespace {
typedef std::uint32_t vu32x8 __attribute__((vector_size(32)));
}  // namespace

bool avx2_runtime() noexcept {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

void sha256_lanes8_avx2(const support::ByteView* msgs,
                        const support::MutableByteView* outs, std::size_t count) {
  lanes_avx2_impl::sha256_digest_lanes<vu32x8>(msgs, outs, count);
}

void blake2s_lanes8_avx2(const support::ByteView* msgs,
                         const support::MutableByteView* outs, std::size_t count) {
  lanes_avx2_impl::blake2s_digest_lanes<vu32x8>(msgs, outs, count);
}

}  // namespace rasc::crypto::lane_detail
