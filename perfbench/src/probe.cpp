#include "probe.hpp"

#include <algorithm>
#include <functional>

#include "rotor.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = (1u << 20) / 8;  // 1 MiB: stays in a core's L2
constexpr std::size_t kHeapSize = 4096;
constexpr int kShaBlocks = 1000;
constexpr int kHeapSteps = 3000;

constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// The SHA-256 compression function over one 16-word block (a private copy:
/// the probe must not change when rasc's crypto does).
void sha256_compress(std::uint32_t s[8], const std::uint32_t block[16]) {
  std::uint32_t w[64];
  std::copy(block, block + 16, w);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = s[0], b = s[1], c = s[2], d = s[3], e = s[4], f = s[5], g = s[6], h = s[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 =
        h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ((e & f) ^ (~e & g)) + kSha256K[i] + w[i];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  s[0] += a;
  s[1] += b;
  s[2] += c;
  s[3] += d;
  s[4] += e;
  s[5] += f;
  s[6] += g;
  s[7] += h;
}

double elapsed_s(std::int64_t& mark) {
  const std::int64_t now = now_ns();
  const double s = static_cast<double>(now - mark) * 1e-9;
  mark = now;
  return s;
}

/// Mean of the middle 80% of `v`; 0 for an empty input.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

}  // namespace

HostProbe::HostProbe() : table_(kTableWords), heap_(kHeapSize) {
  for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = i * 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    heap_[i] = {(i * 2654435761u) % kHeapSize, static_cast<std::uint32_t>(i)};
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void HostProbe::slice(bool keep) {
  std::array<double, kTotal + 1> t{};
  std::int64_t mark = now_ns();
  const std::int64_t start = mark;

  std::uint64_t x = x_;
  std::uint32_t block[16];
  for (int i = 0; i < 16; ++i) block[i] = static_cast<std::uint32_t>(x >> (i % 2 * 32)) + i;

  // SHA-256 compressions chained through their state, as in HMAC.
  for (int i = 0; i < kShaBlocks; ++i) {
    block[i % 16] ^= sha_[i % 8];
    sha256_compress(sha_, block);
  }
  t[kSha] = elapsed_s(mark);

  // An event loop: pop the earliest of a 4096-entry heap, touch a random
  // word of a 1 MiB table, push it back later.
  for (int i = 0; i < kHeapSteps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    auto& [when, id] = heap_.back();
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint64_t& word = table_[(x >> 33) % table_.size()];
    word += id;
    when += 1 + (word & 1023);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  t[kHeap] = elapsed_s(mark);

  t[kTotal] = static_cast<double>(mark - start) * 1e-9;
  x_ = x ^ sha_[0];
  if (!keep) return;
  for (std::size_t k = 0; k <= kTotal; ++k) samples_[k].push_back(t[k]);
}

void HostProbe::sample(std::size_t slices) {
  for (std::size_t i = 0; i < slices; ++i) {
    const PinnedTo cpu(this->slices());
    slice(false);
    slice(true);
  }
}

double HostProbe::mean_s(Kernel kernel) const { return trimmed_mean(samples_[kernel]); }

double HostProbe::slowdown_since(std::size_t from) const {
  const std::vector<double>& all = samples_[kTotal];
  if (from >= all.size()) return 1.0;
  return trimmed_mean({all.begin() + static_cast<std::ptrdiff_t>(from), all.end()}) /
         kNominalSliceS;
}

}  // namespace perfbench
