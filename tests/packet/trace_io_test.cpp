#include "packet/trace_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"

namespace hifind {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string path() const {
    return (std::filesystem::temp_directory_path() /
            ("hifind_trace_io_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++)))
        .string();
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::string track(std::string p) {
    created_.push_back(p);
    return p;
  }
  mutable int counter_{0};
  std::vector<std::string> created_;
};

TEST_F(TraceIoTest, RoundTripsEveryField) {
  Trace t;
  Pcg32 rng(4);
  for (int i = 0; i < 500; ++i) {
    PacketRecord p;
    p.ts = rng.next64() >> 20;
    p.sip = IPv4{rng.next()};
    p.dip = IPv4{rng.next()};
    p.sport = static_cast<std::uint16_t>(rng.next());
    p.dport = static_cast<std::uint16_t>(rng.next());
    p.len = static_cast<std::uint16_t>(40 + rng.bounded(1460));
    p.flags = static_cast<std::uint8_t>(rng.bounded(32));
    p.proto = rng.chance(0.9) ? Protocol::kTcp : Protocol::kUdp;
    p.outbound = rng.chance(0.5);
    t.push_back(p);
  }

  const std::string file = track(path());
  write_trace(t, file);
  const Trace back = read_trace(file);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back[i].ts, t[i].ts);
    EXPECT_EQ(back[i].sip, t[i].sip);
    EXPECT_EQ(back[i].dip, t[i].dip);
    EXPECT_EQ(back[i].sport, t[i].sport);
    EXPECT_EQ(back[i].dport, t[i].dport);
    EXPECT_EQ(back[i].len, t[i].len);
    EXPECT_EQ(back[i].flags, t[i].flags);
    EXPECT_EQ(back[i].proto, t[i].proto);
    EXPECT_EQ(back[i].outbound, t[i].outbound);
  }
}

TEST_F(TraceIoTest, RoundTripsEmptyTrace) {
  const std::string file = track(path());
  write_trace(Trace{}, file);
  EXPECT_EQ(read_trace(file).size(), 0u);
}

TEST_F(TraceIoTest, ReadRejectsMissingFile) {
  EXPECT_THROW(read_trace("/nonexistent/dir/file.hft"), std::runtime_error);
}

TEST_F(TraceIoTest, ReadRejectsBadMagic) {
  const std::string file = track(path());
  std::ofstream(file) << "this is not a trace file at all............";
  EXPECT_THROW(read_trace(file), std::runtime_error);
}

TEST_F(TraceIoTest, ReadRejectsTruncatedBody) {
  Trace t;
  PacketRecord p;
  p.ts = 1;
  t.push_back(p);
  t.push_back(p);
  const std::string file = track(path());
  write_trace(t, file);
  // Chop the last 10 bytes.
  std::filesystem::resize_file(file,
                               std::filesystem::file_size(file) - 10);
  EXPECT_THROW(read_trace(file), std::runtime_error);
}

TEST_F(TraceIoTest, ReadRejectsWrappedPacketCount) {
  // 25 * 10330176681277348905 == 1 (mod 2^64): a size check written as
  // 16 + count * 25 accepts this 17-byte file and then fails to reserve.
  const std::uint64_t count = 10330176681277348905ULL;
  std::string raw = "HFT1";
  raw.push_back(1);
  raw.append(3, '\0');
  for (int i = 0; i < 8; ++i) {
    raw.push_back(static_cast<char>((count >> (8 * i)) & 0xff));
  }
  raw.push_back('x');
  ASSERT_EQ(raw.size(), 17u);
  const std::string file = track(path());
  std::ofstream(file, std::ios::binary) << raw;
  EXPECT_THROW(read_trace(file), std::runtime_error);
}

}  // namespace
}  // namespace hifind
