// Flow identifiers.
//
// Section 7 of the paper evaluates three flow definitions:
//   1. 5-tuple (src/dst IP, src/dst port, protocol) — NetFlow-like;
//   2. destination IP — for (D)DoS victim detection;
//   3. source/destination AS pair — for traffic-matrix engineering.
//
// FlowKey is a tagged value type covering all three; devices treat it as
// an opaque identifier and hash its 64-bit fingerprint. Construction and
// the fingerprint are inline: every classified packet builds one key.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "common/state_buffer.hpp"
#include "hash/hash.hpp"
#include "packet/packet.hpp"

namespace nd::packet {

enum class FlowKeyKind : std::uint8_t {
  kFiveTuple = 0,
  kDestinationIp = 1,
  kAsPair = 2,
  /// Source/destination network-prefix pair ("distinct source and
  /// destination network numbers", Section 1.1's traffic-matrix flow
  /// definition). The prefix length is carried in the key.
  kNetworkPair = 3,
};

[[nodiscard]] const char* to_string(FlowKeyKind kind);

class FlowKey {
 public:
  FlowKey() = default;

  [[nodiscard]] static FlowKey five_tuple(std::uint32_t src_ip,
                                          std::uint32_t dst_ip,
                                          std::uint16_t src_port,
                                          std::uint16_t dst_port,
                                          IpProtocol protocol) {
    return FlowKey(FlowKeyKind::kFiveTuple, src_ip, dst_ip, src_port,
                   dst_port, protocol);
  }
  [[nodiscard]] static FlowKey destination_ip(std::uint32_t dst_ip) {
    return FlowKey(FlowKeyKind::kDestinationIp, 0, dst_ip, 0, 0,
                   IpProtocol::kTcp);
  }
  [[nodiscard]] static FlowKey as_pair(std::uint32_t src_as,
                                       std::uint32_t dst_as) {
    return FlowKey(FlowKeyKind::kAsPair, src_as, dst_as, 0, 0,
                   IpProtocol::kTcp);
  }
  /// Networks must already be masked to `prefix_len` bits.
  [[nodiscard]] static FlowKey network_pair(std::uint32_t src_network,
                                            std::uint32_t dst_network,
                                            std::uint8_t prefix_len) {
    return FlowKey(FlowKeyKind::kNetworkPair, src_network, dst_network,
                   prefix_len, 0, IpProtocol::kTcp);
  }

  [[nodiscard]] FlowKeyKind kind() const { return kind_; }

  /// Deterministic 64-bit fingerprint, well mixed; two distinct keys of
  /// the same kind collide with probability ~2^-64. Devices hash this.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Longest to_string() rendering: a 5-tuple of 255.255.255.255 and
  /// port 65535 on both ends, over ICMP.
  static constexpr std::size_t kMaxChars = 51;

  /// Human-readable rendering, e.g. "10.0.0.1:80 -> 10.0.0.2:443 tcp".
  [[nodiscard]] std::string to_string() const;

  /// Writes to_string() at `out` and returns its end. Like the
  /// common::write_* functions it may store up to common::kWriteSlack
  /// bytes past that end, so `out` needs kMaxChars + kWriteSlack bytes.
  char* write_to(char* out) const;

  // Field accessors (meaning depends on kind; see factory functions).
  [[nodiscard]] std::uint32_t src_ip() const { return a_; }
  [[nodiscard]] std::uint32_t dst_ip() const { return b_; }
  [[nodiscard]] std::uint32_t src_as() const { return a_; }
  [[nodiscard]] std::uint32_t dst_as() const { return b_; }
  [[nodiscard]] std::uint32_t src_network() const { return a_; }
  [[nodiscard]] std::uint32_t dst_network() const { return b_; }
  /// Prefix length of a kNetworkPair key (stored in the c field).
  [[nodiscard]] std::uint8_t prefix_len() const {
    return static_cast<std::uint8_t>(c_);
  }
  [[nodiscard]] std::uint16_t src_port() const { return c_; }
  [[nodiscard]] std::uint16_t dst_port() const { return d_; }
  [[nodiscard]] IpProtocol protocol() const { return proto_; }

  friend bool operator==(const FlowKey& lhs, const FlowKey& rhs) {
    return lhs.fingerprint_ == rhs.fingerprint_ && lhs.kind_ == rhs.kind_ &&
           lhs.a_ == rhs.a_ && lhs.b_ == rhs.b_ && lhs.c_ == rhs.c_ &&
           lhs.d_ == rhs.d_ && lhs.proto_ == rhs.proto_;
  }

 private:
  /// The discriminating fields are packed into two words and mixed. The
  /// kind tag participates so a dst-IP key never collides with a
  /// 5-tuple key for the same address.
  [[nodiscard]] static std::uint64_t fingerprint_fields(
      FlowKeyKind kind, std::uint32_t a, std::uint32_t b, std::uint16_t c,
      std::uint16_t d, IpProtocol proto) {
    const std::uint64_t w0 =
        (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
    const std::uint64_t w1 = (static_cast<std::uint64_t>(c) << 48) |
                             (static_cast<std::uint64_t>(d) << 32) |
                             (static_cast<std::uint64_t>(proto) << 8) |
                             static_cast<std::uint64_t>(kind);
    return hash::splitmix64(hash::splitmix64(w0) ^ w1);
  }

  FlowKey(FlowKeyKind kind, std::uint32_t a, std::uint32_t b, std::uint16_t c,
          std::uint16_t d, IpProtocol proto)
      : fingerprint_(fingerprint_fields(kind, a, b, c, d, proto)),
        a_(a),
        b_(b),
        c_(c),
        d_(d),
        kind_(kind),
        proto_(proto) {}

  // Widest first, so the key packs into 24 bytes with no padding inside
  // (a ReportedFlow is then 40).
  std::uint64_t fingerprint_{0};
  std::uint32_t a_{0};
  std::uint32_t b_{0};
  std::uint16_t c_{0};
  std::uint16_t d_{0};
  FlowKeyKind kind_{FlowKeyKind::kFiveTuple};
  IpProtocol proto_{IpProtocol::kTcp};
};

static_assert(sizeof(FlowKey) == 24);

/// Checkpoint serialization for flow keys: the discriminating fields
/// are written and the key is rebuilt through its factory, so the
/// fingerprint is recomputed rather than trusted from the buffer.
/// load_flow_key throws common::StateError on an unknown kind tag.
void save_flow_key(common::StateWriter& out, const FlowKey& key);
[[nodiscard]] FlowKey load_flow_key(common::StateReader& in);

struct FlowKeyHasher {
  [[nodiscard]] std::size_t operator()(const FlowKey& key) const {
    return static_cast<std::size_t>(key.fingerprint());
  }
};

}  // namespace nd::packet
