#pragma once
/// \file report.hpp
/// Attestation report: the measurement output plus its binding metadata,
/// authenticated with the shared attestation key (MAC) and optionally a
/// digital signature when non-repudiation is required (Section 2.4).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/attest/digest.hpp"
#include "src/crypto/hash.hpp"
#include "src/crypto/hmac.hpp"
#include "src/crypto/sig.hpp"
#include "src/mtree/mtree.hpp"
#include "src/sim/time.hpp"
#include "src/support/bytes.hpp"

namespace rasc::attest {

/// Challenge, measurement, tree root and MAC are inline values, so a
/// flat-mode report is built, sent, parsed and judged without the heap
/// (a device id of up to 15 characters stays in std::string's own buffer).
struct Report {
  std::string device_id;
  Challenge challenge;            ///< empty for self-measurements
  std::uint64_t counter = 0;      ///< monotonic counter / schedule slot
  sim::Time t_start = 0;          ///< t_s of the measurement
  sim::Time t_end = 0;            ///< t_e of the measurement
  crypto::HashKind hash = crypto::HashKind::kSha256;
  Digest measurement;             ///< Measurement::finalize_tag()

  /// Tree-mode extension (empty in flat mode).  When tree_root is
  /// non-empty the serialized body grows a magic-tagged trailer carrying
  /// the root and the subtree proofs for this round's re-measured leaf
  /// ranges — all covered by the report MAC, so tampering with a proof is
  /// indistinguishable from tampering with the measurement itself.  A
  /// flat-mode report serializes byte-identically to the pre-tree wire.
  Digest tree_root;
  std::vector<mtree::MtreeProof> proofs;

  ReportMac mac;                  ///< HMAC-SHA-256 over the serialized body
  support::Bytes signature;       ///< optional hash-and-sign signature

  /// Canonical serialization of everything the MAC/signature covers.
  support::Bytes serialize_body() const;
};

/// MAC the report in place: HMAC-SHA-256 over the serialized body, its
/// fields streamed into the held schedule of the shared attestation key.
void authenticate_report(Report& report, const crypto::HmacSha256Key& key);
void authenticate_report(Report& report, support::ByteView key);

/// Attach a signature (non-repudiation mode).
void sign_report(Report& report, crypto::Signer& signer);

/// Constant-time MAC check (streamed like authenticate_report).
bool report_mac_valid(const Report& report, const crypto::HmacSha256Key& key);
bool report_mac_valid(const Report& report, support::ByteView key);

/// Signature check (false if the report carries no signature).
bool report_signature_valid(const Report& report, const crypto::Signer& signer);

/// Full wire encoding: the serialized body followed by the
/// length-prefixed MAC and signature, in one exactly sized buffer.  This
/// is what actually crosses the simulated link, so in-transit corruption
/// is observable on the verifier side.
support::Bytes serialize_report_wire(const Report& report);

/// Parse a wire-encoded report.  Returns std::nullopt on truncated or
/// structurally malformed input (a corrupted length field, trailing
/// garbage, a challenge, measurement, root or MAC longer than its inline
/// capacity, ...); a corrupted but well-formed wire parses fine and fails
/// MAC verification instead.
std::optional<Report> parse_report_wire(support::ByteView wire);

}  // namespace rasc::attest
