// Robustness of the pcap reader against corrupted input: random bytes,
// random truncations, and random single-byte flips of valid captures
// must raise PcapError or yield records — never crash, hang, or read out
// of bounds.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "pcap/pcap.hpp"

namespace nd::pcap {
namespace {

std::string valid_capture(std::uint32_t packets) {
  std::stringstream stream;
  PcapWriter writer(stream, 128);
  for (std::uint32_t i = 0; i < packets; ++i) {
    packet::PacketRecord record;
    record.timestamp_ns = i * 1000ULL;
    record.src_ip = i;
    record.dst_ip = i + 1;
    record.protocol = packet::IpProtocol::kUdp;
    record.size_bytes = 60 + i % 1000;
    writer.write(record);
  }
  return stream.str();
}

void drain(const std::string& data) {
  std::stringstream stream(data);
  try {
    PcapReader reader(stream);
    int safety = 0;
    while (reader.next_record().has_value()) {
      ASSERT_LT(++safety, 100'000) << "reader failed to terminate";
    }
  } catch (const PcapError&) {
    // Rejection is an acceptable outcome for corrupted input.
  }
}

// 600 records of at most 144 bytes on the wire: ~86 KB, past the
// reader's 64 KiB buffer, so cuts and flips also land after a refill.
constexpr std::uint32_t kRefillPackets = 600;

class PcapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcapFuzz, RandomBytesNeverCrash) {
  common::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const std::size_t size = rng.uniform(4096);
    std::string data(size, '\0');
    for (auto& c : data) {
      c = static_cast<char>(rng.uniform(256));
    }
    drain(data);
  }
}

TEST_P(PcapFuzz, RandomTruncationsNeverCrash) {
  common::Rng rng(GetParam() ^ 0xBEEF);
  const std::string capture = valid_capture(kRefillPackets);
  ASSERT_GT(capture.size(), PcapReader::kReadBufferBytes);
  for (int round = 0; round < 100; ++round) {
    drain(capture.substr(0, rng.uniform(capture.size() + 1)));
  }
}

TEST_P(PcapFuzz, RandomByteFlipsNeverCrash) {
  common::Rng rng(GetParam() ^ 0xF00D);
  const std::string capture = valid_capture(kRefillPackets);
  for (int round = 0; round < 100; ++round) {
    std::string mutated = capture;
    const std::size_t flips = 1 + rng.uniform(8);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<char>(1 << rng.uniform(8));
    }
    drain(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcapFuzz, ::testing::Values(1, 2, 3, 4));

TEST(ReportCodecFuzzNote, SeeReportingTests) {
  // The reporting codec's corruption handling lives in
  // tests/reporting/record_codec_test.cpp.
  SUCCEED();
}

}  // namespace
}  // namespace nd::pcap
