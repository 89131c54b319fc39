#include "src/attest/report.hpp"

#include <cstring>

namespace rasc::attest {

namespace {

/// Tag opening the tree-mode trailer ('MTRE').  A legacy wire can never
/// start a MAC section with it: the value is far above any real MAC
/// length, so the parser's peek is unambiguous.
constexpr std::uint32_t kMtreeMagic = 0x4d545245;

/// Feed the canonical body — everything the MAC and signature cover — to
/// `sink` (called with one support::ByteView per piece, valid only during
/// the call).  The one encoding: the wire writes it, the MAC hashes it and
/// serialize_body() collects it.
template <class Sink>
void encode_body(const Report& report, Sink&& sink) {
  std::uint8_t word[8];
  const auto u32 = [&](std::uint32_t v) {
    support::put_u32_be(word, v);
    sink(support::ByteView(word, 4));
  };
  const auto u64 = [&](std::uint64_t v) {
    support::put_u64_be(word, v);
    sink(support::ByteView(word, 8));
  };
  const auto field = [&](support::ByteView bytes) {
    u32(static_cast<std::uint32_t>(bytes.size()));
    sink(bytes);
  };
  field(support::bytes_of(report.device_id));
  field(report.challenge);
  u64(report.counter);
  u64(report.t_start);
  u64(report.t_end);
  u32(static_cast<std::uint32_t>(report.hash));
  field(report.measurement);
  if (!report.tree_root.empty()) {
    u32(kMtreeMagic);
    field(report.tree_root);
    u32(static_cast<std::uint32_t>(report.proofs.size()));
    for (const auto& proof : report.proofs) field(proof.serialize());
  }
}

/// HMAC-SHA-256 of the body, its fields streamed into the key schedule.
/// The short fields are gathered on the stack first, so the hash sees one
/// update per 128 bytes rather than one per field.
ReportMac body_mac(const Report& report, const crypto::HmacSha256Key& key) {
  crypto::Sha256 inner = key.begin();
  std::uint8_t gathered[128];
  std::size_t used = 0;
  encode_body(report, [&](support::ByteView piece) {
    if (used + piece.size() > sizeof gathered) {
      inner.update({gathered, used});
      used = 0;
    }
    if (piece.size() > sizeof gathered) {
      inner.update(piece);
    } else if (!piece.empty()) {
      std::memcpy(gathered + used, piece.data(), piece.size());
      used += piece.size();
    }
  });
  inner.update({gathered, used});
  ReportMac mac;
  key.finish(inner, mac.prepare(crypto::HmacSha256Key::kTagSize));
  return mac;
}

/// Append what encode_body feeds (and then `extra` bytes) to an exactly
/// reserved buffer.
support::Bytes collect_body(const Report& report, std::size_t extra) {
  std::size_t size = extra;
  encode_body(report, [&size](support::ByteView piece) { size += piece.size(); });
  support::Bytes out;
  out.reserve(size);
  encode_body(report, [&out](support::ByteView piece) { support::append(out, piece); });
  return out;
}

}  // namespace

support::Bytes Report::serialize_body() const { return collect_body(*this, 0); }

void authenticate_report(Report& report, const crypto::HmacSha256Key& key) {
  report.mac = body_mac(report, key);
}

void authenticate_report(Report& report, support::ByteView key) {
  authenticate_report(report, crypto::HmacSha256Key(key));
}

void sign_report(Report& report, crypto::Signer& signer) {
  report.signature = signer.sign(crypto::HashKind::kSha256, report.serialize_body());
}

bool report_mac_valid(const Report& report, const crypto::HmacSha256Key& key) {
  return support::ct_equal(body_mac(report, key), report.mac);
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
  support::Bytes out =
      collect_body(report, 4 + report.mac.size() + 4 + report.signature.size());
  support::append_u32_be(out, static_cast<std::uint32_t>(report.mac.size()));
  support::append(out, report.mac);
  support::append_u32_be(out, static_cast<std::uint32_t>(report.signature.size()));
  support::append(out, report.signature);
  return out;
}

namespace {

/// Bounds-checked sequential reader over a wire buffer.  A failed read
/// clears `ok` and returns an empty value; every later read fails too.
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

  support::ByteView bytes(std::size_t n) noexcept {
    if (!has(n)) {
      ok = false;
      return {};
    }
    const support::ByteView out = wire.subspan(pos, n);
    pos += n;
    return out;
  }

  /// A length-prefixed field.
  support::ByteView field() noexcept { return bytes(u32()); }

  /// A length-prefixed field into an inline value; fails past its capacity.
  template <std::size_t N>
  void field(FixedBytes<N>& out) noexcept {
    const support::ByteView bytes = field();
    if (bytes.size() > N) ok = false;
    if (ok) out.assign(bytes);
  }
};

}  // namespace

std::optional<Report> parse_report_wire(support::ByteView wire) {
  WireReader r{wire};
  Report report;
  const support::ByteView id = r.field();
  if (!id.empty()) {
    report.device_id.assign(reinterpret_cast<const char*>(id.data()), id.size());
  }
  r.field(report.challenge);
  report.counter = r.u64();
  report.t_start = r.u64();
  report.t_end = r.u64();
  report.hash = static_cast<crypto::HashKind>(r.u32());
  r.field(report.measurement);
  // Tree-mode trailer?  A peek is safe because a MAC length can never
  // equal the magic (MACs are tens of bytes, the magic is > 10^9).
  if (r.has(4) && support::get_u32_be(r.wire.subspan(r.pos, 4)) == kMtreeMagic) {
    r.pos += 4;
    r.field(report.tree_root);
    const std::uint32_t proof_count = r.u32();
    for (std::uint32_t i = 0; r.ok && i < proof_count; ++i) {
      const support::ByteView proof_wire = r.field();
      if (!r.ok) break;
      std::size_t proof_pos = 0;
      auto proof = mtree::MtreeProof::parse(proof_wire, proof_pos);
      if (!proof || proof_pos != proof_wire.size()) {
        r.ok = false;
        break;
      }
      report.proofs.push_back(std::move(*proof));
    }
    if (report.tree_root.empty()) r.ok = false;  // would not round-trip
  }
  r.field(report.mac);
  const support::ByteView signature = r.field();
  if (!r.ok || r.pos != wire.size()) return std::nullopt;
  report.signature.assign(signature.begin(), signature.end());
  return report;
}

}  // namespace rasc::attest
