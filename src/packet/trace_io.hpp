// Binary trace persistence.
//
// Format "HFT1": a 16-byte header (magic, version, packet count) followed by
// fixed-width little-endian packet records. Fields are serialized explicitly
// rather than memcpy'ing the struct, so the on-disk format is independent of
// compiler padding and stable across platforms. The reader checks the
// count against the file size before it reserves, and reads the records in
// one pass through a fixed buffer.
#pragma once

#include <string>

#include "packet/trace.hpp"

namespace hifind {

/// Writes a trace to a file. Throws std::runtime_error on I/O failure.
void write_trace(const Trace& trace, const std::string& path);

/// Reads a trace written by write_trace. Throws std::runtime_error on I/O
/// failure or malformed content (bad magic, truncated body).
Trace read_trace(const std::string& path);

}  // namespace hifind
