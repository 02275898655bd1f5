#include "pcap/pcap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

namespace nd::pcap {
namespace {

packet::PacketRecord make_record(std::uint32_t i) {
  packet::PacketRecord r;
  r.timestamp_ns = 1'000'000ULL * i;
  r.src_ip = 0x0A000000 + i;
  r.dst_ip = 0x0A010000 + i;
  r.src_port = static_cast<std::uint16_t>(1000 + i);
  r.dst_port = 80;
  r.protocol = i % 2 == 0 ? packet::IpProtocol::kTcp
                          : packet::IpProtocol::kUdp;
  r.size_bytes = 40 + (i % 1400);
  return r;
}

TEST(Pcap, WriteReadRoundTripInMemory) {
  std::stringstream stream;
  {
    PcapWriter writer(stream);
    for (std::uint32_t i = 0; i < 50; ++i) {
      writer.write(make_record(i));
    }
    EXPECT_EQ(writer.packets_written(), 50u);
  }
  PcapReader reader(stream);
  EXPECT_FALSE(reader.swapped());
  EXPECT_EQ(reader.link_type(), kLinkTypeEthernet);
  std::uint32_t count = 0;
  while (auto record = reader.next_record()) {
    const auto expected = make_record(count);
    // pcap stores microsecond timestamps; ours are whole microseconds.
    EXPECT_EQ(record->timestamp_ns, expected.timestamp_ns);
    EXPECT_EQ(record->src_ip, expected.src_ip);
    EXPECT_EQ(record->dst_ip, expected.dst_ip);
    EXPECT_EQ(record->size_bytes, expected.size_bytes);
    ++count;
  }
  EXPECT_EQ(count, 50u);
}

TEST(Pcap, EmptyFileThrows) {
  std::stringstream stream;
  EXPECT_THROW(PcapReader reader(stream), PcapError);
}

TEST(Pcap, BadMagicThrows) {
  std::stringstream stream;
  stream.write("\x12\x34\x56\x78" "aaaaaaaaaaaaaaaaaaaa", 24);
  EXPECT_THROW(PcapReader reader(stream), PcapError);
}

TEST(Pcap, TruncatedGlobalHeaderThrows) {
  std::stringstream stream;
  stream.write("\xd4\xc3\xb2\xa1\x02\x00", 6);
  EXPECT_THROW(PcapReader reader(stream), PcapError);
}

TEST(Pcap, TruncatedPacketBodyThrows) {
  std::stringstream stream;
  {
    PcapWriter writer(stream);
    writer.write(make_record(0));
  }
  std::string data = stream.str();
  data.resize(data.size() - 10);  // chop the last packet's tail
  std::stringstream broken(data);
  PcapReader reader(broken);
  EXPECT_THROW((void)reader.next(), PcapError);
}

TEST(Pcap, SwappedByteOrderRead) {
  // Build a minimal byte-swapped capture by hand: global header +
  // one 20-byte packet.
  std::stringstream stream;
  auto put_be32 = [&](std::uint32_t v) {
    // Big-endian payload read by a reader expecting little-endian
    // means "swapped" magic handling kicks in.
    char b[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                 static_cast<char>(v >> 8), static_cast<char>(v)};
    stream.write(b, 4);
  };
  auto put_be16 = [&](std::uint16_t v) {
    char b[2] = {static_cast<char>(v >> 8), static_cast<char>(v)};
    stream.write(b, 2);
  };
  put_be32(kMagicNative);  // written BE => reader sees 0xD4C3B2A1
  put_be16(2);
  put_be16(4);
  put_be32(0);
  put_be32(0);
  put_be32(65535);
  put_be32(kLinkTypeEthernet);
  put_be32(1);    // ts_sec
  put_be32(500);  // ts_usec
  put_be32(20);   // caplen
  put_be32(20);   // origlen
  stream.write(std::string(20, '\0').data(), 20);

  PcapReader reader(stream);
  EXPECT_TRUE(reader.swapped());
  const auto pkt = reader.next();
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->timestamp_ns, 1'000'500'000ULL);
  EXPECT_EQ(pkt->data.size(), 20u);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Pcap, SnaplenTruncatesButKeepsOriginalLength) {
  std::stringstream stream;
  {
    PcapWriter writer(stream, /*snaplen=*/100);
    auto record = make_record(3);
    record.size_bytes = 1400;
    writer.write(record);
  }
  PcapReader reader(stream);
  const auto pkt = reader.next();
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->data.size(), 100u);
  EXPECT_EQ(pkt->original_length, 1400u + packet::kEthernetHeaderSize);
}

TEST(Pcap, SnaplenTruncatedFramesStillYieldRecords) {
  std::stringstream stream;
  {
    PcapWriter writer(stream, /*snaplen=*/64);
    auto record = make_record(4);
    record.size_bytes = 1200;
    writer.write(record);
  }
  PcapReader reader(stream);
  const auto record = reader.next_record();
  ASSERT_TRUE(record.has_value());
  // The true IP size survives truncation via the IP total-length field.
  EXPECT_EQ(record->size_bytes, 1200u);
}

// A streambuf that hands out at most three bytes per underflow, the way
// a slow pipe or socket would; the reader's block reads must reassemble
// records across any number of such fragments.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string data) : data_(std::move(data)) {}

 protected:
  int_type underflow() override {
    if (gptr() != nullptr && gptr() < egptr()) {
      return traits_type::to_int_type(*gptr());
    }
    if (pos_ == data_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(3, data_.size() - pos_);
    char* begin = data_.data() + pos_;
    pos_ += n;
    setg(begin, begin, begin + n);
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string data_;
  std::size_t pos_{0};
};

// Records of 500-1499 IP bytes: ~1 KiB each on the wire, so a hundred
// of them fill more than one 64 KiB read buffer.
packet::PacketRecord large_record(std::uint32_t i) {
  auto record = make_record(i);
  record.size_bytes = 500 + (i * 37) % 1000;
  return record;
}

std::string large_capture(std::uint32_t packets) {
  std::stringstream stream;
  PcapWriter writer(stream);
  for (std::uint32_t i = 0; i < packets; ++i) {
    writer.write(large_record(i));
  }
  return stream.str();
}

std::vector<packet::PacketRecord> records_of(std::istream& in) {
  PcapReader reader(in);
  std::vector<packet::PacketRecord> records;
  while (auto record = reader.next_record()) records.push_back(*record);
  return records;
}

// The same capture with every header field byte-reversed: what a
// big-endian writer produces.
std::string byte_swapped(const std::string& native) {
  std::string out = native;
  auto reverse = [&](std::size_t at, std::size_t width) {
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(at),
                 out.begin() + static_cast<std::ptrdiff_t>(at + width));
  };
  // Global header: magic, two u16 versions, then four u32 fields.
  reverse(0, 4);
  reverse(4, 2);
  reverse(6, 2);
  for (std::size_t at = 8; at < 24; at += 4) reverse(at, 4);
  for (std::size_t at = 24; at < native.size();) {
    const auto* caplen_le =
        reinterpret_cast<const unsigned char*>(native.data() + at + 8);
    const std::size_t caplen = caplen_le[0] | (caplen_le[1] << 8) |
                               (caplen_le[2] << 16) |
                               (static_cast<std::size_t>(caplen_le[3]) << 24);
    for (std::size_t field = 0; field < 4; ++field) {
      reverse(at + 4 * field, 4);
    }
    at += 16 + caplen;
  }
  return out;
}

TEST(Pcap, TrickleStreambufYieldsSameRecords) {
  const std::string capture = large_capture(120);
  ASSERT_GT(capture.size(), PcapReader::kReadBufferBytes);
  std::stringstream whole(capture);
  const auto expected = records_of(whole);
  ASSERT_EQ(expected.size(), 120u);
  TrickleBuf trickle(capture);
  std::istream in(&trickle);
  EXPECT_EQ(records_of(in), expected);
}

TEST(Pcap, RecordsStraddleABufferRefill) {
  const std::string capture = large_capture(300);
  ASSERT_GT(capture.size(), 3 * PcapReader::kReadBufferBytes);
  std::stringstream stream(capture);
  const auto records = records_of(stream);
  ASSERT_EQ(records.size(), 300u);
  for (std::uint32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(records[i], large_record(i)) << "record " << i;
  }
  // next() sees the same bytes the writer framed.
  std::stringstream raw_stream(capture);
  PcapReader reader(raw_stream);
  for (std::uint32_t i = 0; i < 300; ++i) {
    const auto packet = reader.next();
    ASSERT_TRUE(packet.has_value()) << "record " << i;
    EXPECT_EQ(packet->data, packet::build_frame(large_record(i)));
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.records_read(), 300u);
}

TEST(Pcap, MaxSnaplenRecordGrowsTheBuffer) {
  // One record of kMaxSnapLen bytes, four times the read buffer, between
  // two ordinary ones.
  std::vector<std::uint8_t> jumbo = packet::build_frame(make_record(1));
  jumbo.resize(kMaxSnapLen);
  for (std::size_t i = 100; i < jumbo.size(); ++i) {
    jumbo[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::stringstream stream;
  {
    PcapWriter writer(stream, kMaxSnapLen);
    writer.write(make_record(0));
    writer.write(5'000, jumbo);
    writer.write(make_record(2));
  }
  PcapReader reader(stream);
  EXPECT_EQ(reader.snaplen(), kMaxSnapLen);
  const auto first = reader.next_record();
  const auto big = reader.next();
  const auto last = reader.next_record();
  ASSERT_TRUE(first && big && last);
  EXPECT_EQ(*first, make_record(0));
  EXPECT_EQ(big->timestamp_ns, 5'000u);
  EXPECT_EQ(big->original_length, kMaxSnapLen);
  EXPECT_EQ(big->data, jumbo);
  EXPECT_EQ(*last, make_record(2));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Pcap, ByteSwappedCaptureReadsTheSameRecords) {
  const std::string native = large_capture(120);
  std::stringstream native_stream(native);
  const auto expected = records_of(native_stream);
  std::stringstream swapped_stream(byte_swapped(native));
  PcapReader reader(swapped_stream);
  EXPECT_TRUE(reader.swapped());
  EXPECT_EQ(reader.snaplen(), 65535u);
  std::vector<packet::PacketRecord> records;
  while (auto record = reader.next_record()) records.push_back(*record);
  EXPECT_EQ(records, expected);
}

TEST(Pcap, NonIpv4FrameIsCountedAsSkipped) {
  std::vector<std::uint8_t> ipv6 = packet::build_frame(make_record(1));
  ipv6[12] = 0x86;  // EtherType IPv6
  ipv6[13] = 0xDD;
  std::stringstream stream;
  {
    PcapWriter writer(stream);
    writer.write(make_record(0));
    writer.write(1'000, ipv6);
    writer.write(make_record(2));
  }
  PcapReader reader(stream);
  const auto first = reader.next_record();
  const auto second = reader.next_record();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(*first, make_record(0));
  EXPECT_EQ(*second, make_record(2));
  EXPECT_FALSE(reader.next_record().has_value());
  EXPECT_EQ(reader.records_read(), 3u);
  EXPECT_EQ(reader.frames_skipped(), 1u);
}

TEST(Pcap, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "nd_pcap_test.pcap").string();
  std::vector<packet::PacketRecord> records;
  for (std::uint32_t i = 0; i < 20; ++i) {
    records.push_back(make_record(i));
  }
  EXPECT_EQ(write_pcap_file(path, records), 20u);
  const auto loaded = read_pcap_file(path);
  ASSERT_EQ(loaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].src_ip, records[i].src_ip);
    EXPECT_EQ(loaded[i].size_bytes, records[i].size_bytes);
  }
  std::filesystem::remove(path);
}

TEST(Pcap, MissingFileThrows) {
  EXPECT_THROW(read_pcap_file("/nonexistent/dir/file.pcap"), PcapError);
}

}  // namespace
}  // namespace nd::pcap
