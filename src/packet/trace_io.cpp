#include "packet/trace_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "packet/file_reader.hpp"

namespace hifind {
namespace {

constexpr char kMagic[4] = {'H', 'F', 'T', '1'};
constexpr std::size_t kRecordBytes = 8 + 4 + 4 + 2 + 2 + 2 + 1 + 1 + 1;

void put_u16(std::vector<char>& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::vector<char>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::vector<char>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(get_u16(p)) |
         (static_cast<std::uint32_t>(get_u16(p + 2)) << 16);
}

std::uint64_t get_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace

void write_trace(const Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open trace file for write: " + path);

  std::vector<char> buf;
  buf.reserve(16 + trace.size() * kRecordBytes);
  buf.insert(buf.end(), kMagic, kMagic + 4);
  put_u32(buf, 1);  // version
  put_u64(buf, trace.size());
  for (const auto& p : trace.packets()) {
    put_u64(buf, p.ts);
    put_u32(buf, p.sip.addr);
    put_u32(buf, p.dip.addr);
    put_u16(buf, p.sport);
    put_u16(buf, p.dport);
    put_u16(buf, p.len);
    buf.push_back(static_cast<char>(p.flags));
    buf.push_back(static_cast<char>(p.proto));
    buf.push_back(static_cast<char>(p.outbound ? 1 : 0));
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!os) throw std::runtime_error("short write on trace file: " + path);
}

Trace read_trace(const std::string& path) {
  FileReader in(path);
  if (!in.is_open()) {
    throw std::runtime_error("cannot open trace file for read: " + path);
  }
  if (in.fill(16) < 16 || std::memcmp(in.data(), kMagic, 4) != 0) {
    throw std::runtime_error("not a HFT1 trace file: " + path);
  }
  const std::uint32_t version = get_u32(in.data() + 4);
  if (version != 1) {
    throw std::runtime_error("unsupported trace version in " + path);
  }
  const std::uint64_t count = get_u64(in.data() + 8);
  in.consume(16);

  Trace trace;
  // Checked by division: 16 + count * kRecordBytes can wrap. A pipe has no
  // size to check against, so it is read unreserved and checked at the end.
  if (const auto size = in.size()) {
    if (*size < 16 || (*size - 16) % kRecordBytes != 0 ||
        (*size - 16) / kRecordBytes != count) {
      throw std::runtime_error("truncated trace file: " + path);
    }
    trace.reserve(count);
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    if (in.fill(kRecordBytes) < kRecordBytes) {
      throw std::runtime_error("truncated trace file: " + path);
    }
    const unsigned char* p = in.data();
    PacketRecord rec;
    rec.ts = get_u64(p);
    rec.sip = IPv4{get_u32(p + 8)};
    rec.dip = IPv4{get_u32(p + 12)};
    rec.sport = get_u16(p + 16);
    rec.dport = get_u16(p + 18);
    rec.len = get_u16(p + 20);
    rec.flags = p[22];
    rec.proto = static_cast<Protocol>(p[23]);
    rec.outbound = p[24] != 0;
    trace.push_back(rec);
    in.consume(kRecordBytes);
  }
  if (in.fill(1) != 0) {
    throw std::runtime_error("truncated trace file: " + path);
  }
  return trace;
}

}  // namespace hifind
