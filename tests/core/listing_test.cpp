// Byte identity of the `ndtm measure` listing renderer: every line
// core::append_flow_line writes (and every FlowKey::to_string /
// common::format_bytes string built on the same append forms) must equal
// the printf rendering the listing has always had,
//   "  %-45s %14s%s\n" of the key, the byte count and "  (exact)",
// with the key and byte strings themselves rendered by snprintf.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/device.hpp"
#include "packet/flow_key.hpp"

namespace nd::core {
namespace {

using packet::FlowKey;
using packet::IpProtocol;

std::string printf_ipv4(std::uint32_t addr) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr >> 24) & 0xFF,
                (addr >> 16) & 0xFF, (addr >> 8) & 0xFF, addr & 0xFF);
  return buf;
}

std::string printf_key(const FlowKey& key) {
  switch (key.kind()) {
    case packet::FlowKeyKind::kFiveTuple: {
      const char* proto = key.protocol() == IpProtocol::kTcp   ? "tcp"
                          : key.protocol() == IpProtocol::kUdp ? "udp"
                                                               : "icmp";
      return printf_ipv4(key.src_ip()) + ":" +
             std::to_string(key.src_port()) + " -> " +
             printf_ipv4(key.dst_ip()) + ":" +
             std::to_string(key.dst_port()) + " " + proto;
    }
    case packet::FlowKeyKind::kDestinationIp:
      return "dst " + printf_ipv4(key.dst_ip());
    case packet::FlowKeyKind::kAsPair:
      return "AS" + std::to_string(key.src_as()) + " -> AS" +
             std::to_string(key.dst_as());
    case packet::FlowKeyKind::kNetworkPair:
      return printf_ipv4(key.src_network()) + "/" +
             std::to_string(key.prefix_len()) + " -> " +
             printf_ipv4(key.dst_network()) + "/" +
             std::to_string(key.prefix_len());
  }
  return "?";
}

std::string printf_bytes(common::ByteCount bytes) {
  constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (value >= 1000.0 && unit + 1 < kUnits.size()) {
    value /= 1000.0;
    ++unit;
  }
  char buf[64];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, kUnits[unit]);
  }
  return buf;
}

std::string printf_line(const ReportedFlow& flow) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-45s %14s%s\n",
                printf_key(flow.key).c_str(),
                printf_bytes(flow.estimated_bytes).c_str(),
                flow.exact ? "  (exact)" : "");
  return buf;
}

std::string rendered_line(const ReportedFlow& flow) {
  std::string out;
  append_flow_line(out, flow);
  return out;
}

void expect_identical(const FlowKey& key, common::ByteCount bytes) {
  for (const bool exact : {false, true}) {
    const ReportedFlow flow{key, bytes, exact};
    ASSERT_EQ(rendered_line(flow), printf_line(flow))
        << printf_key(key) << " " << bytes << " exact=" << exact;
  }
  ASSERT_EQ(key.to_string(), printf_key(key));
  ASSERT_EQ(common::format_bytes(bytes), printf_bytes(bytes)) << bytes;
}

const std::vector<common::ByteCount>& edge_bytes() {
  static const std::vector<common::ByteCount> values = {
      0,
      999,
      1'000,
      999'999,
      1'004'999,
      1'005'000,
      1'125'000,  // 1.125 MB: a tie at the second decimal
      1ULL << 63,
      std::numeric_limits<std::uint64_t>::max(),
  };
  return values;
}

TEST(Listing, EveryKeyKindAndProtocolMatchesPrintf) {
  const std::vector<FlowKey> keys = {
      FlowKey::five_tuple(0x0A000001, 0x0A000002, 1234, 80,
                          IpProtocol::kTcp),
      FlowKey::five_tuple(0xC0A80101, 0x08080808, 53, 5353,
                          IpProtocol::kUdp),
      FlowKey::five_tuple(0x01020304, 0x05060708, 0, 0, IpProtocol::kIcmp),
      FlowKey::destination_ip(0x0A0000FF),
      FlowKey::as_pair(64512, 1000),
      FlowKey::network_pair(0x0A010200, 0x0A020300, 24),
  };
  for (const FlowKey& key : keys) {
    for (const common::ByteCount bytes : edge_bytes()) {
      expect_identical(key, bytes);
    }
  }
}

TEST(Listing, KeyOfExactlyFortyFiveColumnsIsNotPadded) {
  const FlowKey exact45 =
      FlowKey::five_tuple(0xFFFFFFFF, 0x0A0A0A0A, 65535, 6553,
                          IpProtocol::kUdp);
  ASSERT_EQ(exact45.to_string(),
            "255.255.255.255:65535 -> 10.10.10.10:6553 udp");
  ASSERT_EQ(exact45.to_string().size(), 45u);
  for (const common::ByteCount bytes : edge_bytes()) {
    expect_identical(exact45, bytes);
  }
  EXPECT_EQ(rendered_line({exact45, 0, false}).substr(2, 46),
            exact45.to_string() + " ");
}

TEST(Listing, KeyWiderThanFortyFiveColumnsIsNeverTruncated) {
  const FlowKey widest = FlowKey::five_tuple(
      0xFFFFFFFF, 0xFFFFFFFF, 65535, 65535, IpProtocol::kIcmp);
  ASSERT_EQ(widest.to_string(),
            "255.255.255.255:65535 -> 255.255.255.255:65535 icmp");
  for (const common::ByteCount bytes : edge_bytes()) {
    expect_identical(widest, bytes);
  }
  EXPECT_EQ(rendered_line({widest, 999, true}),
            "  255.255.255.255:65535 -> 255.255.255.255:65535 icmp"
            "          999 B  (exact)\n");
}

TEST(Listing, SeededRandomFlowsMatchPrintf) {
  // 100k+ flows: random key kinds and fields, and byte counts spread
  // over every magnitude (a random word shifted right by 0..63 bits).
  common::Rng rng(20010827);
  constexpr std::array<IpProtocol, 3> kProtocols = {
      IpProtocol::kTcp, IpProtocol::kUdp, IpProtocol::kIcmp};
  for (int i = 0; i < 120'000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.word());
    const auto b = static_cast<std::uint32_t>(rng.word());
    FlowKey key;
    switch (rng.uniform(4)) {
      case 0:
        key = FlowKey::five_tuple(
            a, b, static_cast<std::uint16_t>(rng.uniform(65536)),
            static_cast<std::uint16_t>(rng.uniform(65536)),
            kProtocols[rng.uniform(kProtocols.size())]);
        break;
      case 1:
        key = FlowKey::destination_ip(b);
        break;
      case 2:
        key = FlowKey::as_pair(a, b);
        break;
      default:
        key = FlowKey::network_pair(
            a, b, static_cast<std::uint8_t>(rng.uniform(33)));
        break;
    }
    const common::ByteCount bytes = rng.word() >> rng.uniform(64);
    expect_identical(key, bytes);
  }
}

TEST(Listing, EveryByteCountToTenMillionMatchesPrintf) {
  // Every count from 0 B through 10.00 MB: each B, KB and MB value, the
  // unit boundaries and every hundredth's rounding in that span.
  for (common::ByteCount bytes = 0; bytes <= 10'000'000; ++bytes) {
    ASSERT_EQ(common::format_bytes(bytes), printf_bytes(bytes)) << bytes;
  }
}

TEST(Listing, RoundingTiesInEveryUnitMatchPrintf) {
  // 1,000 evenly spaced decimal ties x.xx5 in KB, MB and GB (1.005 up
  // to 999.995, the tie that renders as "1000.00"), each with the 2,000
  // counts on either side of it.
  constexpr common::ByteCount kReach = 2'000;
  for (common::ByteCount scale : {1ULL, 1'000ULL, 1'000'000ULL}) {
    for (common::ByteCount i = 0; i < 1'000; ++i) {
      const common::ByteCount hundredths = 100 + i * 99'899 / 999;
      const common::ByteCount tie = (10 * hundredths + 5) * scale;
      for (common::ByteCount bytes = tie > kReach ? tie - kReach : 0;
           bytes <= tie + kReach; ++bytes) {
        ASSERT_EQ(common::format_bytes(bytes), printf_bytes(bytes)) << bytes;
      }
    }
  }
}

TEST(Listing, AppendsAfterExistingContent) {
  std::string out = "interval 0: 1 flows tracked\n";
  const ReportedFlow flow{FlowKey::destination_ip(0x0A000001), 1'500'000,
                          true};
  append_flow_line(out, flow);
  EXPECT_EQ(out, "interval 0: 1 flows tracked\n" + printf_line(flow));
}

TEST(Listing, FixedMatchesPrintf) {
  common::Rng rng(7);
  for (int i = 0; i < 20'000; ++i) {
    const double value =
        static_cast<double>(rng.word() >> rng.uniform(64)) / 997.0;
    for (const int decimals : {0, 1, 2, 6}) {
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
      std::string out;
      common::append_fixed(out, value, decimals);
      ASSERT_EQ(out, buf) << value << " " << decimals;
    }
  }
}

}  // namespace
}  // namespace nd::core
