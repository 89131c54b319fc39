#include "src/crypto/hash.hpp"

#include <stdexcept>

#include "src/crypto/blake2b.hpp"
#include "src/crypto/blake2s.hpp"
#include "src/crypto/sha256.hpp"
#include "src/crypto/sha512.hpp"

namespace rasc::crypto {

std::unique_ptr<Hash> make_hash(HashKind kind) {
  switch (kind) {
    case HashKind::kSha256: return std::make_unique<Sha256>();
    case HashKind::kSha512: return std::make_unique<Sha512>();
    case HashKind::kBlake2b: return std::make_unique<Blake2b>();
    case HashKind::kBlake2s: return std::make_unique<Blake2s>();
  }
  throw std::invalid_argument("unknown HashKind");
}

std::string hash_name(HashKind kind) {
  switch (kind) {
    case HashKind::kSha256: return "SHA-256";
    case HashKind::kSha512: return "SHA-512";
    case HashKind::kBlake2b: return "BLAKE2b";
    case HashKind::kBlake2s: return "BLAKE2s";
  }
  return "?";
}

std::size_t hash_digest_size(HashKind kind) {
  switch (kind) {
    case HashKind::kSha256: return 32;
    case HashKind::kSha512: return 64;
    case HashKind::kBlake2b: return 64;
    case HashKind::kBlake2s: return 32;
  }
  return 0;
}

support::Bytes hash_oneshot(HashKind kind, support::ByteView data) {
  auto h = make_hash(kind);
  h->update(data);
  return h->finalize();
}

void hash_oneshot_into(Hash& hasher, support::ByteView data,
                       support::MutableByteView out) {
  hasher.reset();
  hasher.update(data);
  hasher.finalize_into(out);
}

}  // namespace rasc::crypto
