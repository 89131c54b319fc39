#pragma once
/// \file hash.hpp
/// Streaming hash interface shared by every digest in the library, plus a
/// registry keyed by HashKind so measurement code and benchmarks can select
/// algorithms at run time (the paper's Figure 2 compares four of them).

#include <memory>
#include <string>

#include "src/support/bytes.hpp"

namespace rasc::crypto {

/// Hash algorithms implemented by the library.
enum class HashKind {
  kSha256,
  kSha512,
  kBlake2b,  // 512-bit digest
  kBlake2s,  // 256-bit digest
};

/// Streaming (init/update/final) hash.  Copyable via clone() so a
/// measurement can be checkpointed and resumed (needed for interruptible
/// attestation).
class Hash {
 public:
  virtual ~Hash() = default;

  /// Absorb more input.
  virtual void update(support::ByteView data) = 0;

  /// Produce the digest and reset to the initial state.
  support::Bytes finalize() {
    support::Bytes digest(digest_size());
    finalize_into(digest);
    return digest;
  }

  /// Allocation-free finalize: write the digest into `out` (which must be
  /// at least digest_size() bytes) and reset to the initial state.
  virtual void finalize_into(support::MutableByteView out) = 0;

  /// Digest size in bytes.
  virtual std::size_t digest_size() const noexcept = 0;

  /// Input block size in bytes (needed by HMAC).
  virtual std::size_t block_size() const noexcept = 0;

  /// Deep copy of the current streaming state.
  virtual std::unique_ptr<Hash> clone() const = 0;

  /// Take over `other`'s streaming state without allocating (HMAC restarts
  /// from its keyed midstates this way).  `other` must be the same
  /// algorithm; std::bad_cast otherwise.
  virtual void assign(const Hash& other) = 0;

  /// Reset to the initial (keyless) state.
  virtual void reset() = 0;
};

/// Factory for a fresh hash of the given kind.
std::unique_ptr<Hash> make_hash(HashKind kind);

/// Human-readable algorithm name ("SHA-256", ...).
std::string hash_name(HashKind kind);

/// Digest size in bytes without instantiating.
std::size_t hash_digest_size(HashKind kind);

/// One-shot convenience.
support::Bytes hash_oneshot(HashKind kind, support::ByteView data);

/// Allocation-free one-shot: digest `data` into `out` (>= digest_size()
/// bytes) reusing `hasher`'s streaming state.  Hot loops hold one Hash and
/// call this per message instead of paying hash_oneshot's make_hash +
/// Bytes allocation every time.
void hash_oneshot_into(Hash& hasher, support::ByteView data,
                       support::MutableByteView out);

/// All kinds, for parameterized tests and benches.
inline constexpr HashKind kAllHashKinds[] = {
    HashKind::kSha256, HashKind::kSha512, HashKind::kBlake2b, HashKind::kBlake2s};

}  // namespace rasc::crypto
