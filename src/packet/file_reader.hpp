// Sequential reader over a fixed buffer, shared by the trace decoders.
//
// Internal to the packet module: read_pcap, read_netflow_v5 and read_trace
// parse each record straight out of the buffer instead of copying the whole
// file into memory first, so their resident memory is the decoded Trace plus
// this one buffer. Regular files and pipes take the same path; only a
// regular file reports its size, which the decoders use to reserve the
// Trace once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace hifind {

class FileReader {
 public:
  /// The largest `fill` request; every record the decoders read ahead of
  /// parsing fits in it many times over.
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 20;

  /// Opens `path` for reading. A failed open is reported by is_open(), so
  /// each decoder keeps its own error message.
  explicit FileReader(const std::string& path);
  ~FileReader();
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  bool is_open() const { return fd_ >= 0; }

  /// Size of the whole file in bytes when it is a regular file; empty for
  /// a pipe or other stream.
  std::optional<std::uint64_t> size() const { return size_; }

  /// Makes `n` bytes (n <= kBufferBytes) available at data(), or every byte
  /// left when the file ends first. Returns available().
  std::size_t fill(std::size_t n) {
    return available() >= n ? available() : refill(n);
  }

  const unsigned char* data() const { return buf_.get() + begin_; }
  std::size_t available() const { return end_ - begin_; }

  /// Drops `n` <= available() bytes from the front.
  void consume(std::size_t n) { begin_ += n; }

  /// Drops the next `n` bytes, reading past the buffer as needed. Returns
  /// false when the file ends before `n` bytes.
  bool skip(std::uint64_t n) {
    if (n > available()) return skip_past_buffer(n);
    begin_ += static_cast<std::size_t>(n);
    return true;
  }

 private:
  /// The slow paths of fill and skip, when the buffer runs short.
  std::size_t refill(std::size_t n);
  bool skip_past_buffer(std::uint64_t n);

  /// Appends to the buffer from the file; returns the bytes read, 0 at EOF.
  /// Throws std::runtime_error on a read error.
  std::size_t read_more();

  std::string path_;
  int fd_{-1};
  std::optional<std::uint64_t> size_;
  std::unique_ptr<unsigned char[]> buf_;
  std::size_t begin_{0};
  std::size_t end_{0};
};

}  // namespace hifind
