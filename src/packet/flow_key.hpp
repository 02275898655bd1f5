// Flow identifiers.
//
// Section 7 of the paper evaluates three flow definitions:
//   1. 5-tuple (src/dst IP, src/dst port, protocol) — NetFlow-like;
//   2. destination IP — for (D)DoS victim detection;
//   3. source/destination AS pair — for traffic-matrix engineering.
//
// FlowKey is a tagged value type covering all three; devices treat it as
// an opaque identifier and hash its 64-bit fingerprint.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "common/state_buffer.hpp"
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
                                          IpProtocol protocol);
  [[nodiscard]] static FlowKey destination_ip(std::uint32_t dst_ip);
  [[nodiscard]] static FlowKey as_pair(std::uint32_t src_as,
                                       std::uint32_t dst_as);
  /// Networks must already be masked to `prefix_len` bits.
  [[nodiscard]] static FlowKey network_pair(std::uint32_t src_network,
                                            std::uint32_t dst_network,
                                            std::uint8_t prefix_len);

  [[nodiscard]] FlowKeyKind kind() const { return kind_; }

  /// Deterministic 64-bit fingerprint, well mixed; two distinct keys of
  /// the same kind collide with probability ~2^-64. Devices hash this.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// Human-readable rendering, e.g. "10.0.0.1:80 -> 10.0.0.2:443 tcp".
  [[nodiscard]] std::string to_string() const;

  /// Appends to_string() to `out` without a temporary string.
  void append_to(std::string& out) const;

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
  FlowKey(FlowKeyKind kind, std::uint32_t a, std::uint32_t b, std::uint16_t c,
          std::uint16_t d, IpProtocol proto);

  FlowKeyKind kind_{FlowKeyKind::kFiveTuple};
  std::uint32_t a_{0};
  std::uint32_t b_{0};
  std::uint16_t c_{0};
  std::uint16_t d_{0};
  IpProtocol proto_{IpProtocol::kTcp};
  std::uint64_t fingerprint_{0};
};

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
