#include "pcap/pcap.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace nd::pcap {

namespace {

void put_u32le(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xFF), static_cast<char>((v >> 8) & 0xFF),
      static_cast<char>((v >> 16) & 0xFF), static_cast<char>((v >> 24) & 0xFF)};
  out.write(bytes, 4);
}

void put_u16le(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xFF),
                         static_cast<char>((v >> 8) & 0xFF)};
  out.write(bytes, 2);
}

// Little-endian field load, byte-reversed for a swapped capture.
std::uint32_t load_u32(const std::uint8_t* p, bool swapped) {
  const std::uint32_t v = common::load_le32(p);
  return swapped ? common::byteswap32(v) : v;
}

std::uint16_t load_u16(const std::uint8_t* p, bool swapped) {
  return static_cast<std::uint16_t>(
      swapped ? (p[0] << 8) | p[1] : p[0] | (p[1] << 8));
}

constexpr std::size_t kGlobalHeaderSize = 24;

}  // namespace

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen)
    : out_(out), snaplen_(snaplen) {
  put_u32le(out_, kMagicNative);
  put_u16le(out_, 2);  // version major
  put_u16le(out_, 4);  // version minor
  put_u32le(out_, 0);  // thiszone
  put_u32le(out_, 0);  // sigfigs
  put_u32le(out_, snaplen_);
  put_u32le(out_, kLinkTypeEthernet);
  if (!out_) throw PcapError("pcap: failed to write global header");
}

void PcapWriter::write(common::TimestampNs timestamp_ns,
                       std::span<const std::uint8_t> frame) {
  const auto captured =
      std::min<std::size_t>(frame.size(), snaplen_);
  put_u32le(out_, static_cast<std::uint32_t>(timestamp_ns / 1'000'000'000ULL));
  put_u32le(out_,
            static_cast<std::uint32_t>((timestamp_ns % 1'000'000'000ULL) /
                                       1000ULL));
  put_u32le(out_, static_cast<std::uint32_t>(captured));
  put_u32le(out_, static_cast<std::uint32_t>(frame.size()));
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(captured));
  if (!out_) throw PcapError("pcap: failed to write packet");
  ++count_;
}

void PcapWriter::write(const packet::PacketRecord& record) {
  write(record.timestamp_ns, packet::build_frame(record));
}

PcapReader::PcapReader(std::istream& in)
    : in_(in), buffer_(kReadBufferBytes) {
  if (!fill(4)) throw PcapError("pcap: empty file");
  const std::uint32_t magic = load_u32(buffer_.data(), false);
  if (magic == kMagicNative) {
    swapped_ = false;
  } else if (magic == kMagicSwapped) {
    swapped_ = true;
  } else {
    throw PcapError("pcap: bad magic number");
  }
  if (!fill(kGlobalHeaderSize)) {
    throw PcapError("pcap: truncated global header");
  }
  const std::uint8_t* header = buffer_.data();
  const std::uint16_t vmaj = load_u16(header + 4, swapped_);
  snaplen_ = load_u32(header + 16, swapped_);
  link_type_ = load_u32(header + 20, swapped_);
  begin_ = kGlobalHeaderSize;
  if (vmaj != 2) {
    throw PcapError("pcap: unsupported version " + std::to_string(vmaj));
  }
  if (snaplen_ == 0 || snaplen_ > kMaxSnapLen) {
    // A zero or absurd snaplen is header corruption; rejecting it here
    // also bounds the buffer, which only ever grows to one record.
    throw PcapError("pcap: implausible snaplen " + std::to_string(snaplen_));
  }
}

bool PcapReader::fill(std::size_t need) {
  const std::size_t have = end_ - begin_;
  if (have >= need) return true;
  if (stream_ended_) return false;
  // Slide the unconsumed tail to the front, then top the buffer up in
  // one large read. A short read means the stream has ended.
  std::memmove(buffer_.data(), buffer_.data() + begin_, have);
  begin_ = 0;
  end_ = have;
  if (need > buffer_.size()) buffer_.resize(need);
  in_.read(reinterpret_cast<char*>(buffer_.data() + end_),
           static_cast<std::streamsize>(buffer_.size() - end_));
  end_ += static_cast<std::size_t>(in_.gcount());
  stream_ended_ = end_ < buffer_.size();
  return end_ >= need;
}

void PcapReader::apply_faults(RecordView& view) {
  // Capture-damage sites, applied after the full record is consumed so
  // the stream stays aligned on the next packet header.
  if (const auto fault = faults_->next("pcap.truncate")) {
    view.data = view.data.first(
        robustness::truncated_size(view.data.size(), fault->salt));
  }
  if (const auto fault = faults_->next("pcap.corrupt")) {
    robustness::corrupt_bytes(view.data, fault->salt);
  }
}

void PcapReader::fail(const char* message) { throw PcapError(message); }

std::optional<PcapPacket> PcapReader::next() {
  RecordView view;
  if (!next_view(view)) return std::nullopt;
  return PcapPacket{view.timestamp_ns, view.original_length,
                    {view.data.begin(), view.data.end()}};
}

std::uint64_t write_pcap_file(const std::string& path,
                              std::span<const packet::PacketRecord> records,
                              std::uint32_t snaplen) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw PcapError("pcap: cannot open for writing: " + path);
  PcapWriter writer(out, snaplen);
  for (const auto& record : records) {
    writer.write(record);
  }
  return writer.packets_written();
}

std::vector<packet::PacketRecord> read_pcap_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw PcapError("pcap: cannot open for reading: " + path);
  PcapReader reader(in);
  std::vector<packet::PacketRecord> records;
  while (auto record = reader.next_record()) {
    records.push_back(*record);
  }
  return records;
}

}  // namespace nd::pcap
