#include "src/attest/verifier.hpp"

#include <algorithm>
#include <stdexcept>

namespace rasc::attest {

namespace {

crypto::HmacDrbg make_challenge_drbg(std::uint64_t challenge_seed) {
  support::Bytes seed(8);
  support::put_u64_be(seed, challenge_seed);
  return crypto::HmacDrbg(seed);
}

}  // namespace

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

Verifier::Verifier(crypto::HashKind hash, support::Bytes key, support::Bytes golden_image,
                   std::size_t block_size, std::uint64_t challenge_seed, MacKind mac)
    : hash_(hash),
      mac_(mac),
      key_(std::move(key)),
      key_schedule_(key_),
      block_size_(block_size),
      challenge_drbg_(make_challenge_drbg(challenge_seed)) {
  if (block_size_ == 0 || golden_image.size() % block_size_ != 0) {
    throw std::invalid_argument("Verifier: golden image must be whole blocks");
  }
  golden_ = std::make_shared<const GoldenMeasurement>(golden_image, block_size_, hash_,
                                                      key_, mac_);
}

Verifier::Verifier(std::shared_ptr<const GoldenMeasurement> golden, support::Bytes key,
                   std::uint64_t challenge_seed)
    : hash_(golden->hash_kind()),
      mac_(golden->mac_kind()),
      key_(std::move(key)),
      key_schedule_(key_),
      golden_(std::move(golden)),
      block_size_(golden_->block_size()),
      challenge_drbg_(make_challenge_drbg(challenge_seed)) {}

Verifier::Verifier(std::shared_ptr<const GoldenMeasurement> golden, support::Bytes key,
                   const SessionState& session)
    : hash_(golden->hash_kind()),
      mac_(golden->mac_kind()),
      key_(std::move(key)),
      key_schedule_(key_),
      golden_(std::move(golden)),
      block_size_(golden_->block_size()),
      challenge_drbg_(session.drbg),
      outstanding_challenge_(session.outstanding_challenge),
      last_counter_seen_(session.last_counter_seen),
      last_counter_(session.last_counter) {}

support::Bytes Verifier::issue_challenge(std::size_t size) {
  outstanding_challenge_ = challenge_drbg_.generate(size);
  return *outstanding_challenge_;
}

support::Bytes Verifier::expected_measurement(const MeasurementContext& context) const {
  return golden_->expected(context);
}

VerifyOutcome Verifier::verify(const Report& report, bool expect_challenge) {
  VerifyOutcome out;
  out.mac_ok = report_mac_valid(report, key_schedule_);

  if (expect_challenge) {
    out.challenge_ok = outstanding_challenge_.has_value() &&
                       support::ct_equal(report.challenge, *outstanding_challenge_);
  } else {
    out.counter_ok = !last_counter_seen_ || report.counter > last_counter_;
  }

  MeasurementContext context{report.device_id, report.challenge, report.counter};
  if (report.tree_root.empty()) {
    out.digest_ok = support::ct_equal(report.measurement, expected_measurement(context));
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
        Measurement::combine_root(report.tree_root, hash_, key_, context, mac_,
                                  &key_schedule_));
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
    if (expect_challenge) outstanding_challenge_.reset();
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

void Verifier::set_golden_image(support::Bytes image) {
  if (image.size() % block_size_ != 0) {
    throw std::invalid_argument("golden image must be whole blocks");
  }
  golden_ = std::make_shared<const GoldenMeasurement>(image, block_size_, hash_, key_, mac_);
}

}  // namespace rasc::attest
