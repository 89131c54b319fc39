#include "src/attest/verifier.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasc::attest {

std::shared_ptr<const crypto::HmacSha256Key> make_challenge_key(std::uint64_t seed) {
  std::uint8_t key[8];
  support::put_u64_be(key, seed);
  return std::make_shared<const crypto::HmacSha256Key>(key);
}

VerifierCounters& VerifierCounters::operator+=(const VerifierCounters& other) noexcept {
  verify_total += other.verify_total;
  verify_fail += other.verify_fail;
  fail_mac += other.fail_mac;
  fail_digest += other.fail_digest;
  fail_challenge += other.fail_challenge;
  fail_counter += other.fail_counter;
  fail_tree_binding += other.fail_tree_binding;
  fail_proof += other.fail_proof;
  localized_ranges += other.localized_ranges;
  return *this;
}

Verifier::Verifier(crypto::HashKind hash, support::ByteView key,
                   support::ByteView golden_image, std::size_t block_size,
                   std::uint64_t challenge_seed, MacKind mac)
    : Verifier(std::make_shared<const GoldenMeasurement>(golden_image, block_size, hash,
                                                         key, mac),
               key, challenge_seed) {}

Verifier::Verifier(std::shared_ptr<const GoldenMeasurement> golden, support::ByteView key,
                   std::uint64_t challenge_seed)
    : Verifier(std::move(golden), key, make_challenge_key(challenge_seed), 0) {}

Verifier::Verifier(std::shared_ptr<const GoldenMeasurement> golden, support::ByteView key,
                   std::shared_ptr<const crypto::HmacSha256Key> challenge_key,
                   std::uint64_t challenge_domain) {
  reseat(std::move(golden), key, std::move(challenge_key), challenge_domain);
}

void Verifier::reseat(std::shared_ptr<const GoldenMeasurement> golden,
                      support::ByteView key,
                      std::shared_ptr<const crypto::HmacSha256Key> challenge_key,
                      std::uint64_t challenge_domain) {
  if (golden == nullptr || challenge_key == nullptr) {
    throw std::invalid_argument("Verifier: null golden or challenge key");
  }
  if (!std::ranges::equal(key, golden->key())) {
    throw std::invalid_argument("Verifier: key differs from the golden's key");
  }
  golden_ = std::move(golden);
  challenge_key_ = std::move(challenge_key);
  challenge_domain_ = challenge_domain;
  issue_index_ = 0;
  last_counter_ = 0;
  outstanding_ = {};
  outstanding_size_ = 0;
  last_counter_seen_ = false;
  counters_ = {};
}

void Verifier::derive_challenge(std::uint64_t index, std::size_t size) {
  std::uint8_t message[16];
  support::put_u64_be({message, 8}, challenge_domain_);
  support::put_u64_be({message + 8, 8}, index);
  challenge_key_->tag(message, outstanding_);
  outstanding_size_ = static_cast<std::uint8_t>(size);
}

Challenge Verifier::issue(std::size_t size) {
  if (size == 0 || size > kMaxChallengeSize) {
    throw std::invalid_argument("Verifier: challenge size must be 1..32 bytes");
  }
  derive_challenge(issue_index_++, size);
  return Challenge(outstanding());
}

void Verifier::restore_session_state(const SessionState& s) {
  issue_index_ = s.issue_index;
  last_counter_ = s.last_counter;
  last_counter_seen_ = s.last_counter_seen;
  outstanding_size_ = 0;
  if (s.outstanding_size != 0) derive_challenge(s.issue_index - 1, s.outstanding_size);
}

VerifyOutcome Verifier::verify(const Report& report, bool expect_challenge) {
  VerifyOutcome out;
  out.mac_ok = report_mac_valid(report, golden_->key_schedule());

  if (expect_challenge) {
    out.challenge_ok =
        outstanding_size_ != 0 && support::ct_equal(report.challenge, outstanding());
  } else {
    out.counter_ok = !last_counter_seen_ || report.counter > last_counter_;
  }

  MeasurementContext context{report.device_id, report.challenge, report.counter};
  if (report.tree_root.empty()) {
    out.digest_ok = support::ct_equal(report.measurement, golden_->expected_tag(context));
  } else {
    out.used_tree = true;
    out.total_blocks = golden_->block_count();
    // Tree mode compares against the MAC of the *golden* root — same
    // verdict as the flat comparison (both are injective in the memory
    // content), different domain.
    out.digest_ok =
        support::ct_equal(report.measurement, golden_->expected_tree(context));
    // Is the carried root the one the measurement was computed from?  If
    // not, the proofs prove statements about some other tree and must not
    // steer localization.
    out.tree_root_bound = support::ct_equal(
        report.measurement,
        Measurement::combine_root(report.tree_root, golden_->hash_kind(), golden_->key(),
                                  context, golden_->mac_kind(), &golden_->key_schedule()));
    if (out.mac_ok && out.tree_root_bound) {
      for (const auto& proof : report.proofs) {
        if (proof.total_leaves != golden_->block_count() ||
            !proof.verify(report.tree_root)) {
          out.proofs_ok = false;  // tampered / mis-shaped proof: discard
          continue;
        }
        // Proof is sound relative to the device's root; any leaf digest
        // differing from the golden digest localizes a divergent block.
        std::size_t run_start = 0;
        std::size_t run_len = 0;
        for (std::size_t i = 0; i < proof.leaves.size(); ++i) {
          const std::size_t block = proof.first_leaf + i;
          if (proof.leaves[i] == golden_->block_digest(block)) {
            if (run_len != 0) out.localized.push_back({run_start, run_len});
            run_len = 0;
          } else {
            if (run_len == 0) run_start = block;
            ++run_len;
          }
        }
        if (run_len != 0) out.localized.push_back({run_start, run_len});
      }
      // Proofs arrive in leaf order but may split one divergent region at
      // a proof boundary — merge touching ranges so the caller sees each
      // infected region once.
      std::sort(out.localized.begin(), out.localized.end(),
                [](const BlockRange& a, const BlockRange& b) { return a.first < b.first; });
      std::vector<BlockRange> merged;
      for (const auto& range : out.localized) {
        if (!merged.empty() && range.first <= merged.back().first + merged.back().count) {
          const std::size_t end =
              std::max(merged.back().first + merged.back().count, range.first + range.count);
          merged.back().count = end - merged.back().first;
        } else {
          merged.push_back(range);
        }
      }
      out.localized = std::move(merged);
    }
  }

  if (out.ok()) {
    last_counter_seen_ = true;
    last_counter_ = report.counter;
    if (expect_challenge) outstanding_size_ = 0;
  }
  ++counters_.verify_total;
  if (!out.ok()) ++counters_.verify_fail;
  if (!out.mac_ok) ++counters_.fail_mac;
  if (!out.digest_ok) ++counters_.fail_digest;
  if (!out.challenge_ok) ++counters_.fail_challenge;
  if (!out.counter_ok) ++counters_.fail_counter;
  if (out.used_tree) {
    if (!out.tree_root_bound) ++counters_.fail_tree_binding;
    if (!out.proofs_ok) ++counters_.fail_proof;
    counters_.localized_ranges += out.localized.size();
  }
  return out;
}

}  // namespace rasc::attest
