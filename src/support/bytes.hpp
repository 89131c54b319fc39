#pragma once
/// \file bytes.hpp
/// Byte-buffer aliases and small utilities shared across the library.

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rasc::support {

/// Owning byte buffer used throughout the library.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning views.
using ByteView = std::span<const std::uint8_t>;
using MutableByteView = std::span<std::uint8_t>;

/// Build a byte buffer from a string literal / std::string payload.
Bytes to_bytes(std::string_view s);

/// View the characters of `s` as bytes, without copying.
inline ByteView bytes_of(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Interpret a byte buffer as text (for tests and diagnostics).
std::string to_string(ByteView b);

/// Constant-time equality check: runs in time that depends only on the
/// lengths, never on the contents.  Returns false for mismatched lengths.
bool ct_equal(ByteView a, ByteView b) noexcept;

/// Best-effort secure wipe that the optimizer cannot elide.
void secure_wipe(MutableByteView b) noexcept;

/// Concatenate buffers (variadic helper for message construction).
Bytes concat(std::initializer_list<ByteView> parts);

/// Little/big-endian scalar (de)serialization helpers.
void put_u32_be(MutableByteView out, std::uint32_t v) noexcept;
void put_u64_be(MutableByteView out, std::uint64_t v) noexcept;
std::uint32_t get_u32_be(ByteView in) noexcept;
std::uint64_t get_u64_be(ByteView in) noexcept;
void put_u32_le(MutableByteView out, std::uint32_t v) noexcept;
void put_u64_le(MutableByteView out, std::uint64_t v) noexcept;
std::uint32_t get_u32_le(ByteView in) noexcept;
std::uint64_t get_u64_le(ByteView in) noexcept;

/// Append scalar values to a growing buffer (used by report serialization).
void append_u32_be(Bytes& out, std::uint32_t v);
void append_u64_be(Bytes& out, std::uint64_t v);
void append(Bytes& out, ByteView b);

}  // namespace rasc::support
