/// google-benchmark microbenchmarks of the cryptographic substrate.

#include <benchmark/benchmark.h>

#include "src/attest/measurement.hpp"
#include "src/attest/verifier.hpp"
#include "src/bignum/prime.hpp"
#include "src/crypto/cbcmac.hpp"
#include "src/crypto/drbg.hpp"
#include "src/crypto/ecdsa.hpp"
#include "src/crypto/hmac.hpp"
#include "src/crypto/lanes.hpp"
#include "src/crypto/rsa.hpp"
#include "src/support/rng.hpp"

namespace {

using namespace rasc;

void BM_Hash(benchmark::State& state) {
  const auto kind = static_cast<crypto::HashKind>(state.range(0));
  const auto data = support::random_bytes(1, static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hash_oneshot(kind, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(crypto::hash_name(kind));
}
BENCHMARK(BM_Hash)
    ->ArgsProduct({{0, 1, 2, 3}, {1 << 10, 64 << 10, 1 << 20}});

/// Multi-lane digesting: N independent 4 KiB messages per call.  lanes=1
/// is the reused-state scalar loop (BlockDigester's per-block baseline);
/// lanes=4/8 go through digest_many on the host's kernel.
template <std::size_t N>
void lane_rows(benchmark::State& state, crypto::HashKind kind) {
  constexpr std::size_t kMsg = 4096;
  const auto pool = support::random_bytes(1, kMsg * N);
  support::Bytes sink(64 * N);
  support::ByteView views[N];
  support::MutableByteView outs[N];
  const std::size_t digest_size = crypto::hash_digest_size(kind);
  for (std::size_t l = 0; l < N; ++l) {
    views[l] = support::ByteView(pool.data() + l * kMsg, kMsg);
    outs[l] = support::MutableByteView(sink.data() + l * digest_size, digest_size);
  }
  if constexpr (N == 1) {
    auto hasher = crypto::make_hash(kind);
    for (auto _ : state) {
      crypto::hash_oneshot_into(*hasher, views[0], outs[0]);
      benchmark::DoNotOptimize(sink.data());
    }
    state.SetLabel(crypto::hash_name(kind) + "/scalar");
  } else {
    for (auto _ : state) {
      crypto::digest_many(kind, views, outs);
      benchmark::DoNotOptimize(sink.data());
    }
    state.SetLabel(crypto::hash_name(kind) + "/" + crypto::lane_kernel_name(kind));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kMsg * N);
}

void BM_LaneHash(benchmark::State& state) {
  const auto kind = static_cast<crypto::HashKind>(state.range(0));
  switch (state.range(1)) {
    case 1: lane_rows<1>(state, kind); break;
    case 4: lane_rows<4>(state, kind); break;
    default: lane_rows<8>(state, kind); break;
  }
}
BENCHMARK(BM_LaneHash)
    ->ArgsProduct({{0, 3}, {1, 4, 8}});  // SHA-256, BLAKE2s x lanes

/// Per-block digest F cost at the exact measurement block sizes: the
/// encryption-based F (AES-CBC-MAC) vs the hash-based F (unkeyed SHA-256 /
/// BLAKE2s), through the same reusable BlockDigester the prover runs.
void BM_BlockDigestF(benchmark::State& state) {
  const auto mac = static_cast<attest::MacKind>(state.range(0));
  const auto kind = static_cast<crypto::HashKind>(state.range(1));
  const auto block_size = static_cast<std::size_t>(state.range(2));
  const auto key = support::random_bytes(1, 16);
  const auto block = support::random_bytes(1, block_size);
  attest::BlockDigester digester(mac, kind, key);
  attest::Digest out;
  for (auto _ : state) {
    digester.digest(block, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block_size));
  state.SetLabel(attest::mac_kind_name(mac) + "/" + crypto::hash_name(kind));
  state.counters["blocks/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BlockDigestF)
    ->ArgsProduct({{0, 1}, {0, 3}, {64, 4096}});  // F x hash x block size

void BM_HmacSha256(benchmark::State& state) {
  const auto key = support::random_bytes(1, 32);
  const auto data = support::random_bytes(1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Hmac::compute(crypto::HashKind::kSha256, key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(1 << 10)->Arg(1 << 20);

/// Control-plane MAC sizes — a challenge request's MAC input (44 B) and a
/// flat report body (97 B) — one-shot Hmac::compute (pads derived per
/// call) vs a held HmacSha256Key tagging into a caller buffer.
void BM_HmacSha256Short(benchmark::State& state) {
  const auto key = support::random_bytes(1, 16);
  const auto data = support::random_bytes(2, static_cast<std::size_t>(state.range(0)));
  const bool held = state.range(1) != 0;
  const crypto::HmacSha256Key schedule(key);
  std::uint8_t tag[crypto::HmacSha256Key::kTagSize];
  for (auto _ : state) {
    if (held) {
      schedule.tag(data, tag);
      benchmark::DoNotOptimize(tag);
    } else {
      benchmark::DoNotOptimize(crypto::Hmac::compute(crypto::HashKind::kSha256, key, data));
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel(held ? "held schedule" : "one-shot");
}
BENCHMARK(BM_HmacSha256Short)->ArgsProduct({{44, 97}, {0, 1}});

void BM_AesCbcMac(benchmark::State& state) {
  const auto key = support::random_bytes(1, 16);
  const auto data = support::random_bytes(1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::CbcMac::compute(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCbcMac)->Arg(1 << 10)->Arg(64 << 10);

void BM_DrbgGenerate(benchmark::State& state) {
  crypto::HmacDrbg drbg(support::random_bytes(1, 32));
  support::Bytes out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    drbg.generate(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DrbgGenerate)->Arg(16)->Arg(32)->Arg(4096);

/// The verifier's challenge: one HMAC-SHA-256 PRF block per call from a
/// held K_chal schedule (2 compressions), against BM_DrbgGenerate's 8.
void BM_ChallengePrf(benchmark::State& state) {
  const auto golden = std::make_shared<const attest::GoldenMeasurement>(
      support::random_bytes(1, 256), 64, crypto::HashKind::kSha256,
      support::random_bytes(2, 16));
  attest::Verifier verifier(golden, golden->key(), attest::make_challenge_key(3), 0);
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.issue_challenge(size));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChallengePrf)->Arg(16);

void BM_EcdsaSign(benchmark::State& state) {
  const auto curve = static_cast<crypto::CurveId>(state.range(0));
  crypto::HmacDrbg drbg(support::random_bytes(7, 32));
  const auto key = crypto::ecdsa_generate_key(curve, drbg);
  const auto digest = crypto::hash_oneshot(crypto::HashKind::kSha256, support::random_bytes(1, 64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdsa_sign(key, digest));
  }
  state.SetLabel(crypto::curve_name(curve));
}
BENCHMARK(BM_EcdsaSign)->Arg(0)->Arg(1)->Arg(2);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto curve = static_cast<crypto::CurveId>(state.range(0));
  crypto::HmacDrbg drbg(support::random_bytes(8, 32));
  const auto key = crypto::ecdsa_generate_key(curve, drbg);
  const auto digest = crypto::hash_oneshot(crypto::HashKind::kSha256, support::random_bytes(1, 64));
  const auto sig = crypto::ecdsa_sign(key, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdsa_verify(curve, key.public_key, digest, sig));
  }
  state.SetLabel(crypto::curve_name(curve));
}
BENCHMARK(BM_EcdsaVerify)->Arg(0)->Arg(1)->Arg(2);

const crypto::RsaKeyPair& rsa_key(std::size_t bits) {
  static const crypto::RsaKeyPair k1024 = [] {
    crypto::HmacDrbg drbg(support::random_bytes(1024, 32));
    return crypto::rsa_generate_key(1024, drbg);
  }();
  static const crypto::RsaKeyPair k2048 = [] {
    crypto::HmacDrbg drbg(support::random_bytes(2048, 32));
    return crypto::rsa_generate_key(2048, drbg);
  }();
  return bits == 1024 ? k1024 : k2048;
}

void BM_RsaSign(benchmark::State& state) {
  const auto& key = rsa_key(static_cast<std::size_t>(state.range(0)));
  const auto digest = crypto::hash_oneshot(crypto::HashKind::kSha256, support::random_bytes(1, 64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign_digest(key.priv, crypto::HashKind::kSha256,
                                                     digest));
  }
}
BENCHMARK(BM_RsaSign)->Arg(1024)->Arg(2048);

void BM_RsaVerify(benchmark::State& state) {
  const auto& key = rsa_key(static_cast<std::size_t>(state.range(0)));
  const auto digest = crypto::hash_oneshot(crypto::HashKind::kSha256, support::random_bytes(1, 64));
  const auto sig = crypto::rsa_sign_digest(key.priv, crypto::HashKind::kSha256, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::rsa_verify_digest(key.pub, crypto::HashKind::kSha256, digest, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(1024)->Arg(2048);

void BM_MillerRabin256(benchmark::State& state) {
  crypto::HmacDrbg drbg(support::random_bytes(9, 32));
  auto source = drbg.byte_source();
  const bn::Bignum prime = bn::generate_prime(256, source, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn::is_probable_prime(prime, 5, source));
  }
}
BENCHMARK(BM_MillerRabin256);

}  // namespace
