#include "src/attest/report.hpp"

namespace rasc::attest {

namespace {

/// Tag opening the tree-mode trailer ('MTRE').  A legacy wire can never
/// start a MAC section with it: the value is far above any real MAC
/// length, so the parser's peek is unambiguous.
constexpr std::uint32_t kMtreeMagic = 0x4d545245;
}

support::Bytes Report::serialize_body() const {
  support::Bytes out;
  // Room for the flat body plus the MAC and signature sections that
  // serialize_report_wire appends: one allocation on either path.
  out.reserve(4 + device_id.size() + 4 + challenge.size() + 3 * 8 + 4 + 4 +
              measurement.size() + 4 + mac.size() + 4 + signature.size());
  support::append_u32_be(out, static_cast<std::uint32_t>(device_id.size()));
  out.insert(out.end(), device_id.begin(), device_id.end());
  support::append_u32_be(out, static_cast<std::uint32_t>(challenge.size()));
  support::append(out, challenge);
  support::append_u64_be(out, counter);
  support::append_u64_be(out, t_start);
  support::append_u64_be(out, t_end);
  support::append_u32_be(out, static_cast<std::uint32_t>(hash));
  support::append_u32_be(out, static_cast<std::uint32_t>(measurement.size()));
  support::append(out, measurement);
  if (!tree_root.empty()) {
    support::append_u32_be(out, kMtreeMagic);
    support::append_u32_be(out, static_cast<std::uint32_t>(tree_root.size()));
    support::append(out, tree_root);
    support::append_u32_be(out, static_cast<std::uint32_t>(proofs.size()));
    for (const auto& proof : proofs) {
      const support::Bytes wire = proof.serialize();
      support::append_u32_be(out, static_cast<std::uint32_t>(wire.size()));
      support::append(out, wire);
    }
  }
  return out;
}

void authenticate_report(Report& report, const crypto::HmacSha256Key& key) {
  report.mac.resize(crypto::HmacSha256Key::kTagSize);
  key.tag(report.serialize_body(), report.mac);
}

void authenticate_report(Report& report, support::ByteView key) {
  authenticate_report(report, crypto::HmacSha256Key(key));
}

void sign_report(Report& report, crypto::Signer& signer) {
  report.signature = signer.sign(crypto::HashKind::kSha256, report.serialize_body());
}

bool report_mac_valid(const Report& report, const crypto::HmacSha256Key& key) {
  std::uint8_t tag[crypto::HmacSha256Key::kTagSize];
  key.tag(report.serialize_body(), tag);
  return support::ct_equal(tag, report.mac);
}

bool report_mac_valid(const Report& report, support::ByteView key) {
  return report_mac_valid(report, crypto::HmacSha256Key(key));
}

bool report_signature_valid(const Report& report, const crypto::Signer& signer) {
  if (report.signature.empty()) return false;
  return signer.verify(crypto::HashKind::kSha256, report.serialize_body(),
                       report.signature);
}

support::Bytes serialize_report_wire(const Report& report) {
  support::Bytes out = report.serialize_body();
  support::append_u32_be(out, static_cast<std::uint32_t>(report.mac.size()));
  support::append(out, report.mac);
  support::append_u32_be(out, static_cast<std::uint32_t>(report.signature.size()));
  support::append(out, report.signature);
  return out;
}

namespace {

/// Bounds-checked sequential reader over a wire buffer.
struct WireReader {
  support::ByteView wire;
  std::size_t pos = 0;
  bool ok = true;

  bool has(std::size_t n) const noexcept { return ok && wire.size() - pos >= n; }

  std::uint32_t u32() noexcept {
    if (!has(4)) {
      ok = false;
      return 0;
    }
    const std::uint32_t v = support::get_u32_be(wire.subspan(pos, 4));
    pos += 4;
    return v;
  }

  std::uint64_t u64() noexcept {
    if (!has(8)) {
      ok = false;
      return 0;
    }
    const std::uint64_t v = support::get_u64_be(wire.subspan(pos, 8));
    pos += 8;
    return v;
  }

  support::Bytes bytes(std::size_t n) noexcept {
    if (!has(n)) {
      ok = false;
      return {};
    }
    support::Bytes out(wire.begin() + static_cast<std::ptrdiff_t>(pos),
                       wire.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return out;
  }
};

}  // namespace

std::optional<Report> parse_report_wire(support::ByteView wire) {
  WireReader r{wire};
  Report report;
  const std::uint32_t id_len = r.u32();
  report.device_id = support::to_string(r.bytes(id_len));
  const std::uint32_t challenge_len = r.u32();
  report.challenge = r.bytes(challenge_len);
  report.counter = r.u64();
  report.t_start = r.u64();
  report.t_end = r.u64();
  report.hash = static_cast<crypto::HashKind>(r.u32());
  const std::uint32_t measurement_len = r.u32();
  report.measurement = r.bytes(measurement_len);
  // Tree-mode trailer?  A peek is safe because a MAC length can never
  // equal the magic (MACs are tens of bytes, the magic is > 10^9).
  if (r.has(4) && support::get_u32_be(r.wire.subspan(r.pos, 4)) == kMtreeMagic) {
    r.pos += 4;
    const std::uint32_t root_len = r.u32();
    report.tree_root = r.bytes(root_len);
    const std::uint32_t proof_count = r.u32();
    for (std::uint32_t i = 0; r.ok && i < proof_count; ++i) {
      const std::uint32_t proof_len = r.u32();
      if (!r.has(proof_len)) {
        r.ok = false;
        break;
      }
      std::size_t proof_pos = 0;
      auto proof =
          mtree::MtreeProof::parse(r.wire.subspan(r.pos, proof_len), proof_pos);
      if (!proof || proof_pos != proof_len) {
        r.ok = false;
        break;
      }
      report.proofs.push_back(std::move(*proof));
      r.pos += proof_len;
    }
    if (report.tree_root.empty()) r.ok = false;  // would not round-trip
  }
  const std::uint32_t mac_len = r.u32();
  report.mac = r.bytes(mac_len);
  const std::uint32_t sig_len = r.u32();
  report.signature = r.bytes(sig_len);
  if (!r.ok || r.pos != wire.size()) return std::nullopt;
  return report;
}

}  // namespace rasc::attest
