/// Figure 2 reproduction: timings of hash functions (SHA-256, SHA-512,
/// BLAKE2b, BLAKE2s) and signature schemes (RSA-1024/2048/4096,
/// ECDSA-160/224/256) as a function of input size.
///
/// Two instruments:
///  (a) host-measured wall clock of this library's from-scratch
///      implementations — reproduces the *shape* (hash cost linear in
///      size, signature cost flat, crossover around ~1 MB);
///  (b) the ODROID-XU4-calibrated CpuModel — reproduces the paper's
///      absolute numbers (~0.9 s @ 100 MB, ~7 s @ 1 GB, ~14 s @ 2 GB).

#include <chrono>
#include <cstdio>
#include <vector>

#include "src/crypto/hash.hpp"
#include "src/crypto/sig.hpp"
#include "src/sim/cpu_model.hpp"
#include "src/support/plot.hpp"
#include "src/support/rng.hpp"
#include "src/support/table.hpp"

using namespace rasc;
using Clock = std::chrono::steady_clock;

namespace {

double time_once(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) best = std::min(best, time_once(fn));
  return best;
}

}  // namespace

int main() {
  std::printf("=== Figure 2: hash & signature timings ===\n\n");

  // ---- (a) host-measured -----------------------------------------------
  std::printf("--- (a) host-measured, this library's implementations ---\n");
  const std::vector<std::size_t> sizes = {1 << 10, 4 << 10,  16 << 10, 64 << 10,
                                          256 << 10, 1 << 20, 4 << 20,  16 << 20,
                                          64 << 20};
  const support::Bytes buffer = support::random_bytes(2, sizes.back());

  std::vector<support::Series> series;
  support::Table hash_table({"size", "SHA-256 (s)", "SHA-512 (s)", "BLAKE2b (s)",
                             "BLAKE2s (s)"});
  std::vector<std::vector<double>> hash_times(4);
  for (std::size_t size : sizes) {
    std::vector<std::string> row = {std::to_string(size >> 10) + " KiB"};
    for (std::size_t k = 0; k < 4; ++k) {
      const crypto::HashKind kind = crypto::kAllHashKinds[k];
      const int reps = size <= (1 << 20) ? 5 : 1;
      const double t = time_best_of(reps, [&] {
        (void)crypto::hash_oneshot(kind, support::ByteView(buffer.data(), size));
      });
      hash_times[k].push_back(t);
      row.push_back(support::fmt_sci(t, 2));
    }
    hash_table.add_row(std::move(row));
  }
  std::printf("%s\n", hash_table.render().c_str());

  for (std::size_t k = 0; k < 4; ++k) {
    support::Series s;
    s.name = crypto::hash_name(crypto::kAllHashKinds[k]);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      s.x.push_back(static_cast<double>(sizes[i]));
      s.y.push_back(hash_times[k][i]);
    }
    series.push_back(std::move(s));
  }

  std::printf("Signature schemes (flat in input size; hash-and-sign):\n");
  support::Table sig_table({"scheme", "keygen (s)", "sign (s)", "verify (s)"});
  const auto digest = crypto::hash_oneshot(crypto::HashKind::kSha256,
                                           support::ByteView(buffer.data(), 1024));
  for (crypto::SigKind kind : crypto::kAllSigKinds) {
    crypto::HmacDrbg drbg(support::to_bytes("fig2-" + crypto::sig_name(kind)));
    std::unique_ptr<crypto::Signer> signer;
    const double t_keygen = time_once([&] { signer = crypto::make_signer(kind, drbg); });
    support::Bytes sig;
    const double t_sign =
        time_best_of(3, [&] { sig = signer->sign_digest(crypto::HashKind::kSha256, digest); });
    const double t_verify = time_best_of(3, [&] {
      (void)signer->verify(crypto::HashKind::kSha256,
                           support::ByteView(buffer.data(), 1024), sig);
    });
    // verify() hashes the 1 KiB message; negligible next to the public-key op.
    sig_table.add_row({crypto::sig_name(kind), support::fmt_double(t_keygen, 3),
                       support::fmt_sci(t_sign, 2), support::fmt_sci(t_verify, 2)});
    support::Series flat;
    flat.name = crypto::sig_name(kind) + " sign";
    for (std::size_t size : sizes) {
      flat.x.push_back(static_cast<double>(size));
      flat.y.push_back(t_sign);
    }
    series.push_back(std::move(flat));
  }
  std::printf("%s\n", sig_table.render().c_str());

  support::PlotOptions opt;
  opt.log_x = true;
  opt.log_y = true;
  opt.height = 22;
  opt.x_label = "input size (bytes)";
  opt.y_label = "time (s) -- host-measured";
  std::printf("%s\n", support::render_plot(series, opt).c_str());
  std::printf("Shape checks: hash curves rise linearly (slope 1 in log-log);\n");
  std::printf("signature lines are flat; hashing overtakes every signature\n");
  std::printf("beyond the ~1..64 MB region, as in the paper.\n\n");

  // ---- (b) ODROID-XU4 calibrated model ----------------------------------
  std::printf("--- (b) ODROID-XU4-calibrated model (paper's platform) ---\n");
  sim::CpuModel model;
  support::Table model_table(
      {"size", "SHA-256 model", "paper reference", "SHA-512", "BLAKE2b", "BLAKE2s"});
  struct Ref {
    std::uint64_t size;
    const char* label;
    const char* paper;
  };
  const Ref refs[] = {
      {1u << 20, "1 MB", "> 0.01 s threshold region"},
      {100ull << 20, "100 MB", "~0.9 s (Sec. 2.4)"},
      {1ull << 30, "1 GB", "~7 s (Sec. 2.5)"},
      {2ull << 30, "2 GB", "~14 s (Sec. 2.4)"},
  };
  for (const Ref& ref : refs) {
    model_table.add_row(
        {ref.label,
         support::fmt_double(sim::to_seconds(model.hash_time(crypto::HashKind::kSha256, ref.size)), 3) + " s",
         ref.paper,
         support::fmt_double(sim::to_seconds(model.hash_time(crypto::HashKind::kSha512, ref.size)), 3) + " s",
         support::fmt_double(sim::to_seconds(model.hash_time(crypto::HashKind::kBlake2b, ref.size)), 3) + " s",
         support::fmt_double(sim::to_seconds(model.hash_time(crypto::HashKind::kBlake2s, ref.size)), 3) + " s"});
  }
  std::printf("%s\n", model_table.render().c_str());

  support::Table model_sig({"scheme", "sign (model)", "verify (model)",
                            "hash size where SHA-256 cost = sign cost"});
  for (crypto::SigKind kind : crypto::kAllSigKinds) {
    const double sign_s = sim::to_seconds(model.sign_time(kind));
    const double nspb = model.hash_ns_per_byte(crypto::HashKind::kSha256);
    const double crossover_mb = sign_s * 1e9 / nspb / (1 << 20);
    model_sig.add_row({crypto::sig_name(kind), support::fmt_sci(sign_s, 2) + " s",
                       support::fmt_sci(sim::to_seconds(model.verify_time(kind)), 2) + " s",
                       support::fmt_double(crossover_mb, 2) + " MB"});
  }
  std::printf("%s\n", model_sig.render().c_str());
  std::printf("For inputs over ~1 MB, MP exceeds 0.01 s and most signature costs\n");
  std::printf("become comparatively insignificant (paper Sec. 2.4).\n");
  return 0;
}
