#include "packet/file_reader.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace hifind {

FileReader::FileReader(const std::string& path)
    : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
  if (fd_ < 0) return;
  struct stat st {};
  if (::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode)) {
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
  // Uninitialized on purpose: pages the reads never reach stay unmapped.
  buf_.reset(new unsigned char[kBufferBytes]);
}

FileReader::~FileReader() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t FileReader::refill(std::size_t n) {
  if (n > kBufferBytes) {
    throw std::logic_error("FileReader::fill beyond the buffer");
  }
  if (begin_ + n > kBufferBytes) {
    std::memmove(buf_.get(), buf_.get() + begin_, available());
    end_ -= begin_;
    begin_ = 0;
  }
  while (available() < n && read_more() > 0) {
  }
  return available();
}

bool FileReader::skip_past_buffer(std::uint64_t n) {
  while (n > available()) {
    n -= available();
    begin_ = end_ = 0;
    if (read_more() == 0) return false;
  }
  begin_ += static_cast<std::size_t>(n);
  return true;
}

std::size_t FileReader::read_more() {
  for (;;) {
    const ::ssize_t got = ::read(fd_, buf_.get() + end_, kBufferBytes - end_);
    if (got >= 0) {
      end_ += static_cast<std::size_t>(got);
      return static_cast<std::size_t>(got);
    }
    if (errno != EINTR) {
      throw std::runtime_error("read failed on " + path_ + ": " +
                               std::strerror(errno));
    }
  }
}

}  // namespace hifind
