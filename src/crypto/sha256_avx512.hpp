#pragma once
/// \file sha256_avx512.hpp
/// Private interface to the AVX-512 translation unit (sha256_avx512.cpp,
/// compiled with -mavx512f -mavx512bw when the toolchain supports it).
/// Only included by lanes.cpp, and only when CMake defines
/// RASC_CRYPTO_HAVE_AVX512; callers must gate the kernel on
/// avx512_runtime().

#include <cstddef>
#include <cstdint>

namespace rasc::crypto::detail {

/// True when the executing CPU reports AVX512F and AVX512BW via CPUID (and
/// the OS saves the ZMM state).
bool avx512_runtime() noexcept;

/// Sixteen independent SHA-256 streams of `nblocks` 64-byte blocks each:
/// stream l reads blocks[l] onward and its chaining value is column l of
/// `state` (word i of stream l in state[i][l]).
void sha256_blocks_avx512_x16(std::uint32_t state[8][16], const std::uint8_t* const blocks[16],
                              std::size_t nblocks) noexcept;

}  // namespace rasc::crypto::detail
