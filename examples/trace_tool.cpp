// trace_tool: generate, inspect, and analyze packet-trace files.
//
// The offline workflow around the library: synthesize a labelled trace once,
// persist it in the HFT1 binary format, and re-run detection or statistics
// against the file — the moral equivalent of the paper's "export netflow,
// replay through HiFIND" loop.
//
//   trace_tool gen <file> [nu|lbl] [seed] [seconds]   synthesize + save
//   trace_tool info <file>                            header statistics
//   trace_tool detect <file>                          run HiFIND, print alerts
//   trace_tool convert <in> <out>                     HFT1 <-> pcap
//
// Files ending in .pcap use the standard pcap format (so captures from
// tcpdump/wireshark feed straight in); anything else uses the native HFT1
// binary format.
//
// Build & run:  ./build/examples/trace_tool gen /tmp/nu.pcap nu 7 600
#include <charconv>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "core/pipeline.hpp"
#include "gen/scenario.hpp"
#include "packet/netflow_v5.hpp"
#include "packet/pcap.hpp"
#include "packet/trace_io.hpp"

namespace {

using namespace hifind;

bool has_suffix(const std::string& path, const std::string& suffix) {
  return path.size() > suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}
bool is_pcap_path(const std::string& path) {
  return has_suffix(path, ".pcap");
}
bool is_netflow_path(const std::string& path) {
  return has_suffix(path, ".nf5");
}

Trace load(const std::string& path) {
  if (is_netflow_path(path)) {
    return read_netflow_v5(path, nullptr);
  }
  if (is_pcap_path(path)) {
    // No network model available for a raw capture: treat RFC1918 space as
    // internal, a reasonable default for edge captures.
    return read_pcap(
        path,
        [](IPv4 ip) {
          const std::uint32_t a = ip.addr;
          return (a >> 24) == 10 || (a >> 20) == 0xac1 ||
                 (a >> 16) == 0xc0a8;
        },
        nullptr);
  }
  return read_trace(path);
}

void store(const Trace& trace, const std::string& path) {
  if (is_netflow_path(path)) {
    write_netflow_v5(trace, path);
  } else if (is_pcap_path(path)) {
    write_pcap(trace, path);
  } else {
    write_trace(trace, path);
  }
}

int cmd_gen(const std::string& path, const std::string& preset,
            std::uint64_t seed, std::uint32_t seconds) {
  const ScenarioConfig cfg = preset == "lbl" ? lbl_like_config(seed, seconds)
                                             : nu_like_config(seed, seconds);
  const Scenario scenario = build_scenario(cfg);
  store(scenario.trace, path);
  std::cout << "wrote " << scenario.trace.size() << " packets ("
            << scenario.truth.attacks().size() << " attacks) to " << path
            << "\n";
  for (const auto& e : scenario.truth.events()) {
    std::cout << "  [" << e.start / kMicrosPerSecond << "s-"
              << e.end / kMicrosPerSecond << "s] " << event_kind_name(e.kind)
              << " (" << e.label << ")\n";
  }
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out) {
  const Trace trace = load(in);
  store(trace, out);
  std::cout << "converted " << trace.size() << " packets: " << in << " -> "
            << out << "\n";
  return 0;
}

int cmd_info(const std::string& path) {
  const Trace trace = load(path);
  const TraceStats s = trace.stats();
  std::cout << "packets:   " << s.packets << "\n"
            << "tcp:       " << s.tcp_packets << "\n"
            << "syn:       " << s.syn_packets << "\n"
            << "syn/ack:   " << s.synack_packets << "\n"
            << "outbound:  " << s.outbound_packets << "\n"
            << "bytes:     " << s.total_bytes << "\n"
            << "duration:  " << s.duration_seconds() << " s\n"
            << "un-responded SYN rate: "
            << (s.syn_packets > s.synack_packets && s.duration_seconds() > 0
                    ? static_cast<double>(s.syn_packets - s.synack_packets) /
                          s.duration_seconds()
                    : 0.0)
            << " /s\n";
  return 0;
}

int cmd_detect(const std::string& path) {
  const Trace trace = load(path);
  PipelineConfig config;
  Pipeline pipeline(config);
  pipeline.on_interval([](const IntervalResult& r) {
    for (const Alert& a : r.final) {
      std::cout << "[interval " << r.interval << "] " << a.describe() << "\n";
    }
  });
  std::size_t alerts = 0;
  for (const auto& p : trace.packets()) pipeline.offer(p);
  pipeline.finish();
  for (const auto& r : pipeline.results()) alerts += r.final.size();
  std::cout << "intervals: " << pipeline.results().size()
            << ", alerts: " << alerts << "\n";
  return 0;
}

/// Parses all of `text` as a decimal integer no larger than `max`: no sign,
/// no spaces, no trailing characters.
bool parse_uint(const char* text, std::uint64_t max, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end && out <= max;
}

int usage() {
  std::cerr << "usage:\n"
               "  trace_tool gen <file> [nu|lbl] [seed] [seconds]\n"
               "  trace_tool info <file>\n"
               "  trace_tool detect <file>\n"
               "  trace_tool convert <in> <out>\n"
               "(*.pcap = pcap, *.nf5 = NetFlow v5 export, else HFT1)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  try {
    if (cmd == "gen") {
      const std::string preset = argc > 3 ? argv[3] : "nu";
      if (preset != "nu" && preset != "lbl") return usage();
      std::uint64_t seed = 1;
      if (argc > 4 &&
          !parse_uint(argv[4], std::numeric_limits<std::uint64_t>::max(),
                      seed)) {
        return usage();
      }
      std::uint64_t seconds = 600;
      if (argc > 5 &&
          (!parse_uint(argv[5], std::numeric_limits<std::uint32_t>::max(),
                       seconds) ||
           seconds == 0)) {
        return usage();
      }
      return cmd_gen(path, preset, seed, static_cast<std::uint32_t>(seconds));
    }
    if (cmd == "info") return cmd_info(path);
    if (cmd == "detect") return cmd_detect(path);
    if (cmd == "convert" && argc > 3) return cmd_convert(path, argv[3]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
