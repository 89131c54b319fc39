// Heap-allocation guard for the control-plane crypto hot path.  This file
// replaces the global operator new with a counting one, so it is its own
// test binary: no other suite runs under the counter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/crypto/drbg.hpp"
#include "src/crypto/hmac.hpp"
#include "src/crypto/lanes.hpp"
#include "src/support/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rasc::crypto {
namespace {

constexpr int kCalls = 1000;

/// Heap allocations made while running `fn`.
template <class Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(CryptoAlloc, CounterSeesHeapAllocations) {
  EXPECT_GE(allocations_during([] { support::Bytes b(64); (void)b; }), 1u);
}

TEST(CryptoAlloc, KeyedTagsAllocateNothing) {
  const HmacSha256Key key(support::to_bytes("device-attestation-key"));
  std::uint8_t message[97] = {};  // a flat report body's length
  std::uint8_t tag[HmacSha256Key::kTagSize];
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < kCalls; ++i) {
      message[i % sizeof message] ^= static_cast<std::uint8_t>(i);
      key.tag(message, tag);
      Sha256 inner = key.begin();
      inner.update(tag);
      inner.update(message);
      key.finish(inner, tag);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(CryptoAlloc, HeldHmacAllocatesNothingPerTag) {
  for (HashKind kind : kAllHashKinds) {
    Hmac held(kind, support::to_bytes("device-attestation-key"));
    std::uint8_t message[44] = {};  // a challenge request's MAC input
    std::uint8_t tag[64];
    const std::size_t n = allocations_during([&] {
      for (int i = 0; i < kCalls; ++i) {
        message[i % sizeof message] ^= static_cast<std::uint8_t>(i);
        held.compute_into(message, support::MutableByteView(tag, held.tag_size()));
      }
    });
    EXPECT_EQ(n, 0u) << hash_name(kind);
  }
}

TEST(CryptoAlloc, DrbgGenerateIntoCallerBufferAllocatesNothing) {
  HmacDrbg drbg(support::to_bytes("challenge-seed"));
  std::uint8_t challenge[16];
  std::uint8_t long_output[100];
  const std::size_t n = allocations_during([&] {
    for (int i = 0; i < kCalls; ++i) {
      drbg.generate(challenge);
      drbg.generate(long_output);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(CryptoAlloc, DigestManyAllocatesNothingOnceWarm) {
  // Any count, single trailing messages and odd tails included, of every
  // kind: packs go to the lane kernel, the rest to a scalar hash on the
  // stack.  One warm-up call per count (first use builds the kernel table).
  std::vector<support::Bytes> messages;
  for (std::size_t i = 0; i < 17; ++i) {
    messages.push_back(support::random_bytes(7 + i, 4096 - 61 * i));
  }
  std::vector<support::ByteView> views(messages.begin(), messages.end());
  support::Bytes sink(64 * messages.size());
  for (HashKind kind : kAllHashKinds) {
    const std::size_t digest_size = hash_digest_size(kind);
    std::vector<support::MutableByteView> outs;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      outs.push_back(support::MutableByteView(sink.data() + digest_size * i, digest_size));
    }
    for (std::size_t count = 0; count <= messages.size(); ++count) {
      const std::span<const support::ByteView> msgs(views.data(), count);
      const std::span<const support::MutableByteView> dst(outs.data(), count);
      digest_many(kind, msgs, dst);
      const std::size_t n = allocations_during([&] {
        for (int i = 0; i < 8; ++i) digest_many(kind, msgs, dst);
      });
      EXPECT_EQ(n, 0u) << hash_name(kind) << " count " << count;
    }
  }
}

}  // namespace
}  // namespace rasc::crypto
