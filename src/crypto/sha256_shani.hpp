#pragma once
/// \file sha256_shani.hpp
/// Private interface to the SHA-NI translation unit (sha256_shani.cpp,
/// compiled with -msha -msse4.1 when the toolchain supports it).  Only
/// included by sha256.cpp, and only when CMake defines
/// RASC_CRYPTO_HAVE_SHANI; callers must gate every kernel on
/// sha_ni_runtime().

#include <cstddef>
#include <cstdint>

namespace rasc::crypto::detail {

/// True when the executing CPU reports the SHA extensions (and SSE4.1)
/// via CPUID.
bool sha_ni_runtime() noexcept;

/// Compress `nblocks` consecutive 64-byte blocks at `p` into `state`.
void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t* p,
                         std::size_t nblocks) noexcept;

/// Two independent streams of `nblocks` blocks each, their round chains
/// interleaved so one stream's sha256rnds2 latency hides the other's.
void sha256_blocks_shani_x2(std::uint32_t state_a[8], std::uint32_t state_b[8],
                            const std::uint8_t* pa, const std::uint8_t* pb,
                            std::size_t nblocks) noexcept;

}  // namespace rasc::crypto::detail
