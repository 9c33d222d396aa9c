// Packets-in -> alerts-out replay benchmark for HiFIND.
//
// One binary, five subcommands; perfbench/run.py drives them:
//
//   gen   <workload> <seed> <dir>     build the workload's scenario, write the
//                                     input file (pcap or NetFlow v5) plus a
//                                     ground-truth sidecar and a meta file
//   setup <workload>                  construct the pipeline, print the
//                                     CLOCK_MONOTONIC instant it is ready
//   run   <workload> <input> <seconds> <alerts-out>
//                                     closed-loop replays of the input through
//                                     the library's public pipeline, untraced
//   trace <workload> <input> <alerts-out>
//                                     one replay composed from the layers'
//                                     public calls in one thread, each call
//                                     timed at batch or interval granularity
//   score <workload> <alerts> <truth> precision / event recall of the alerts
//
// The measured processes (setup, run, trace) never see the ground truth;
// the generator and the scorer never touch the pipeline. Every subcommand
// prints one JSON object on stdout.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/task_pool.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "detect/overlapped.hpp"
#include "gen/scenario.hpp"
#include "packet/netflow_v5.hpp"
#include "packet/pcap.hpp"

namespace {

using namespace hifind;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double ns_of(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}

// --- Workloads --------------------------------------------------------------

enum class Format { kPcap, kNetflowV5 };

struct Workload {
  std::string name;
  Format format{Format::kPcap};
  /// true: OverlappedPipeline (record threads + background epoch);
  /// false: the serial Pipeline that `trace_tool detect` runs.
  bool overlapped{false};
  PipelineConfig serial{};
  OverlappedPipelineConfig overlapped_config{};

  const HifindDetectorConfig& detector() const {
    return overlapped ? overlapped_config.detector : serial.detector;
  }
  const SketchBankConfig& bank() const {
    return overlapped ? overlapped_config.bank : serial.bank;
  }
  unsigned record_threads() const {
    return overlapped ? overlapped_config.record_threads : 0;
  }
  /// Threads that run detection work while the driver could be offering.
  unsigned epoch_threads() const {
    return static_cast<unsigned>(
        std::max<std::size_t>(detector().epoch_threads, 1));
  }
};

// Thread plan: at most three threads busy at once, so on a 4-CPU host one
// CPU stays free for the rest of the system. A fourth busy thread makes the
// latencies follow the host scheduler: with two record threads the alert
// latency of flood_nf5 doubled and its spread across runs grew several-fold.
//   serial:     driver (blocked during the epoch) + 2 epoch threads;
//   overlapped: driver + 1 record thread + 1 epoch thread (the merge runs
//               inline on the epoch thread).
constexpr unsigned kSerialEpochThreads = 2;
constexpr unsigned kRecordThreads = 1;
constexpr unsigned kOverlappedEpochThreads = 1;

/// Spoofed SYNs per 60 s interval while four floods of flood_nf5 overlap.
constexpr std::size_t kFloodClientsPerInterval = std::size_t{1} << 18;

Workload workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "nu_pcap") {
    // The default Pipeline (reversible backend, no budget), as
    // `trace_tool detect` runs it; only the epoch pool is sized.
    w.format = Format::kPcap;
    w.serial.detector.epoch_threads = kSerialEpochThreads;
  } else if (name == "flood_nf5") {
    w.format = Format::kNetflowV5;
    w.overlapped = true;
    w.overlapped_config.bank.backend = SketchBackendKind::kCompact;
    w.overlapped_config.record_threads = kRecordThreads;
    w.overlapped_config.detector.epoch_threads = kOverlappedEpochThreads;
  } else if (name == "overload_pcap") {
    w.format = Format::kPcap;
    w.overlapped = true;
    w.overlapped_config.record_threads = kRecordThreads;
    w.overlapped_config.detector.epoch_threads = kOverlappedEpochThreads;
    w.overlapped_config.shed.budget_ops_per_interval = 65536;
    w.overlapped_config.detector.budget.deadline_ms = 20.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// The workload seed draws the network model: host addresses, the service
/// roster, which services the attacks hit and who the background clients
/// are. The attack schedule (start, length, rate and breadth of every event)
/// is the preset's own, fixed per workload: on the reversible backend the
/// reversal cost grows much faster than linearly with the number of
/// overlapping attacks, so a seed-drawn schedule makes one input several
/// times slower than another and no figure would be comparable across seeds.
ScenarioConfig scenario_for(const std::string& name, std::uint64_t seed) {
  ScenarioConfig c;
  if (name == "nu_pcap") {
    c = nu_like_config(1, 1800);
  } else if (name == "flood_nf5") {
    // million_flow_config's spoofed floods, stretched from 3 intervals to
    // 30: eight floods of 4-8 intervals each, so Phase 3's persistence
    // filter sees them and intervals carry up to ~2^18 distinct sources.
    c = million_flow_config(7, kFloodClientsPerInterval);
    c.duration_seconds = 1800;
    c.num_spoofed_floods = 8;
    c.spoofed_flood_duration_min = 240.0;
    c.spoofed_flood_duration_max = 480.0;
  } else if (name == "overload_pcap") {
    // The attack-heavy NU mix of bench/detection_epoch.cpp.
    c = nu_like_config(7, 1800);
    c.num_spoofed_floods = 10;
    c.num_fixed_floods = 8;
    c.num_hscans = 60;
    c.num_vscans = 16;
    c.num_block_scans = 2;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  c.network.seed = seed;
  return c;
}

// --- Input decode -----------------------------------------------------------

struct Decoded {
  Trace trace;
  std::size_t skipped{0};  ///< pcap frames / NetFlow records not decoded
};

Decoded decode(const Workload& w, const std::string& path) {
  Decoded d;
  if (w.format == Format::kPcap) {
    // Direction comes from the monitored edge's prefixes; the generator's
    // timestamps are kept as written so intervals align with its clock.
    const NetworkModelConfig edge;
    PcapReadStats s;
    d.trace = read_pcap(
        path,
        [&edge](IPv4 ip) {
          const auto top = static_cast<std::uint16_t>(ip.addr >> 16);
          return std::find(edge.internal_prefixes.begin(),
                           edge.internal_prefixes.end(),
                           top) != edge.internal_prefixes.end();
        },
        &s, /*rebase=*/false);
    d.skipped = s.non_ip + s.non_tcp_udp + s.truncated;
  } else {
    NetflowV5ReadStats s;
    d.trace = read_netflow_v5(path, &s);
    d.skipped = s.flagless;
  }
  return d;
}

std::uint64_t recordable_ops(const Trace& trace) {
  std::uint64_t n = 0;
  for (const PacketRecord& p : trace.packets()) n += syn_delta(p) != 0;
  return n;
}

// --- Output helpers ---------------------------------------------------------

/// Minimal JSON object writer: numbers with all their digits.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& list(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", vs[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& raw(const std::string& key, const std::string& v) {
    out_ += out_.empty() ? '{' : ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
    out_ += v;
    return *this;
  }
  std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

/// Writes every interval's alert lists, one alert per line, magnitudes as
/// hex floats: two runs agree bit for bit iff their files are equal.
void write_alerts(const std::vector<IntervalResult>& results,
                  const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const auto put = [&os](const char* phase, const std::vector<Alert>& as) {
    for (const Alert& a : as) {
      char mag[64];
      std::snprintf(mag, sizeof mag, "%a", a.magnitude);
      os << phase << ' ' << static_cast<int>(a.type) << ' ' << a.interval
         << ' ' << static_cast<int>(a.key_kind) << ' ' << a.key << ' ' << mag
         << '\n';
    }
  };
  for (const IntervalResult& r : results) {
    os << "interval " << r.interval << ' ' << r.raw.size() << ' '
       << r.after_2d.size() << ' ' << r.final.size() << ' '
       << r.refined.size() << '\n';
    put("raw", r.raw);
    put("after_2d", r.after_2d);
    put("final", r.final);
    put("refined", r.refined);
  }
}

bool same_alerts(const std::vector<IntervalResult>& a,
                 const std::vector<IntervalResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].interval != b[i].interval || a[i].raw != b[i].raw ||
        a[i].after_2d != b[i].after_2d || a[i].final != b[i].final ||
        a[i].refined != b[i].refined) {
      return false;
    }
  }
  return true;
}

/// Peak resident set of this process, from /proc (VmHWM, kB).
double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- gen --------------------------------------------------------------------

void write_truth(const GroundTruthLedger& truth, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  for (const GroundTruthEvent& e : truth.events()) {
    char rate[64];
    std::snprintf(rate, sizeof rate, "%a", e.rate_pps);
    os << static_cast<int>(e.kind) << ' ' << e.start << ' ' << e.end << ' '
       << (e.sip ? std::to_string(e.sip->addr) : "-") << ' '
       << (e.dip ? std::to_string(e.dip->addr) : "-") << ' '
       << (e.dport ? std::to_string(*e.dport) : "-") << ' ' << rate << ' '
       << e.label << '\n';
  }
}

GroundTruthLedger read_truth(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  GroundTruthLedger truth;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    int kind = 0;
    std::string sip, dip, dport, rate;
    GroundTruthEvent e;
    ls >> kind >> e.start >> e.end >> sip >> dip >> dport >> rate;
    if (!ls) throw std::runtime_error("malformed truth line: " + line);
    std::getline(ls >> std::ws, e.label);
    e.kind = static_cast<EventKind>(kind);
    if (sip != "-") e.sip = IPv4{static_cast<std::uint32_t>(std::stoul(sip))};
    if (dip != "-") e.dip = IPv4{static_cast<std::uint32_t>(std::stoul(dip))};
    if (dport != "-") e.dport = static_cast<std::uint16_t>(std::stoul(dport));
    e.rate_pps = std::strtod(rate.c_str(), nullptr);
    truth.add(std::move(e));
  }
  return truth;
}

int cmd_gen(const Workload& w, std::uint64_t seed, const std::string& dir) {
  const Scenario scenario = build_scenario(scenario_for(w.name, seed));
  const Trace& trace = scenario.trace;
  if (trace.empty()) throw std::runtime_error("empty scenario");
  const bool pcap = w.format == Format::kPcap;
  const std::string input = dir + (pcap ? "/input.pcap" : "/input.nf5");
  std::size_t expected = trace.size();
  Timestamp first = trace[0].ts;
  if (pcap) {
    write_pcap(trace, input);
  } else {
    write_netflow_v5(trace, input);
    // The v5 writer keeps SYN, SYN-ACK and FIN segments and UDP packets,
    // one record each; the reader rebases the earliest record to t = 0.
    expected = 0;
    for (const PacketRecord& p : trace.packets()) {
      expected += p.is_syn() || p.is_synack() || p.is_fin() ||
                  p.proto == Protocol::kUdp;
    }
    first = 0;
  }
  write_truth(scenario.truth, dir + "/truth.txt");
  const IntervalClock clock(workload(w.name).detector().interval_seconds);
  const Timestamp last = trace[trace.size() - 1].ts;
  const std::string meta =
      Json()
          .str("input", input)
          .count("packets_generated", trace.size())
          .count("packets_expected", expected)
          .count("first_ts_us", first)
          .count("intervals",
                 clock.interval_of(last) - clock.interval_of(trace[0].ts) + 1)
          .count("first_interval", clock.interval_of(trace[0].ts))
          .count("attack_events", scenario.truth.attacks().size())
          .done();
  std::ofstream(dir + "/meta.json") << meta << '\n';
  std::cout << meta << '\n';
  return 0;
}

// --- setup ------------------------------------------------------------------

int cmd_setup(const Workload& w) {
  const auto ready = [] {
    std::cout << Json()
                     .count("ready_ns",
                            static_cast<std::uint64_t>(
                                std::chrono::duration_cast<
                                    std::chrono::nanoseconds>(
                                    Clock::now().time_since_epoch())
                                    .count()))
                     .done()
              << std::endl;
  };
  if (w.overlapped) {
    OverlappedPipeline pipe(w.overlapped_config);
    ready();
  } else {
    Pipeline pipe(w.serial);
    ready();
  }
  return 0;
}

// --- run (untraced) ---------------------------------------------------------

/// One closed-loop replay: decode the file, offer every packet, hold every
/// interval's result.
struct Replay {
  double wall_s{0};  ///< file open -> last IntervalResult in hand
  std::size_t packets{0};
  std::size_t skipped{0};
  Timestamp first_ts{0};
  /// Per interval: boundary handed to the pipeline -> result in hand.
  std::vector<double> alert_ms;
  /// Per boundary: time the driver was blocked in the call that crossed it.
  std::vector<double> stall_ms;
  std::vector<IntervalResult> results;
  std::uint64_t close_stall_us{0};  ///< OverlappedPipeline telemetry
};

Replay replay_serial(const Workload& w, const std::string& path) {
  Replay out;
  Pipeline pipe(w.serial);
  std::vector<Clock::time_point> result_at;
  pipe.on_interval([&result_at](const IntervalResult&) {
    result_at.push_back(Clock::now());
  });
  const IntervalClock clock(w.serial.detector.interval_seconds);

  const Clock::time_point t_open = Clock::now();
  Decoded d = decode(w, path);
  const auto packets = d.trace.packets();
  if (packets.empty()) throw std::runtime_error("no packets decoded");
  Timestamp next_boundary =
      clock.interval_start(clock.interval_of(packets[0].ts) + 1);
  for (const PacketRecord& p : packets) {
    if (p.ts < next_boundary) {
      pipe.offer(p);
      continue;
    }
    // This packet hands over the boundary: the call closes the interval(s)
    // behind it and returns once their results are in hand.
    const std::size_t before = result_at.size();
    const Clock::time_point t0 = Clock::now();
    pipe.offer(p);
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = before; i < result_at.size(); ++i) {
      out.alert_ms.push_back(ms_between(t0, result_at[i]));
    }
    out.stall_ms.push_back(ms_between(t0, t1));
    next_boundary = clock.interval_start(clock.interval_of(p.ts) + 1);
  }
  const Clock::time_point t0 = Clock::now();
  pipe.finish();
  const Clock::time_point t_end = Clock::now();
  out.alert_ms.push_back(ms_between(t0, result_at.back()));
  out.stall_ms.push_back(ms_between(t0, t_end));
  out.wall_s = ms_between(t_open, t_end) / 1e3;
  out.packets = packets.size();
  out.skipped = d.skipped;
  out.first_ts = packets[0].ts;
  out.results = pipe.results();
  // Every serial close holds ingest for its whole epoch: all of it is what
  // OverlappedPipeline::close_stall_us() calls back-pressure.
  double stalled_ms = 0;
  for (double v : out.stall_ms) stalled_ms += v;
  out.close_stall_us = static_cast<std::uint64_t>(stalled_ms * 1e3);
  return out;
}

Replay replay_overlapped(const Workload& w, const std::string& path) {
  Replay out;
  OverlappedPipeline pipe(w.overlapped_config);
  const IntervalClock clock(w.overlapped_config.detector.interval_seconds);
  std::vector<Clock::time_point> handed, result_at;
  // Results are collected every kPoll packets, which bounds the resolution
  // of the alert latency to the time the driver takes to offer kPoll packets.
  constexpr std::size_t kPoll = 256;
  const auto collect = [&] {
    std::vector<IntervalResult> got = pipe.take_results();
    if (got.empty()) return;
    const Clock::time_point now = Clock::now();
    for (IntervalResult& r : got) {
      result_at.push_back(now);
      out.results.push_back(std::move(r));
    }
  };
  const auto close = [&] {
    const Clock::time_point t0 = Clock::now();
    pipe.close_interval();
    out.stall_ms.push_back(ms_between(t0, Clock::now()));
    handed.push_back(t0);
    collect();
  };

  const Clock::time_point t_open = Clock::now();
  Decoded d = decode(w, path);
  const auto packets = d.trace.packets();
  if (packets.empty()) throw std::runtime_error("no packets decoded");
  // OverlappedPipeline numbers intervals from 0 at construction.
  if (clock.interval_of(packets[0].ts) != 0) {
    throw std::runtime_error("trace does not start in interval 0");
  }
  std::uint64_t current = 0;
  Timestamp next_boundary = clock.interval_start(1);
  std::size_t since_poll = 0;
  for (const PacketRecord& p : packets) {
    if (p.ts >= next_boundary) {
      const std::uint64_t iv = clock.interval_of(p.ts);
      for (; current < iv; ++current) close();
      next_boundary = clock.interval_start(iv + 1);
    }
    pipe.offer(p);
    if (++since_poll == kPoll) {
      since_poll = 0;
      collect();
    }
  }
  close();
  pipe.wait_epoch_idle();
  collect();
  const Clock::time_point t_end = Clock::now();
  if (result_at.size() != handed.size()) {
    throw std::runtime_error("missing interval results");
  }
  for (std::size_t i = 0; i < handed.size(); ++i) {
    out.alert_ms.push_back(ms_between(handed[i], result_at[i]));
  }
  out.wall_s = ms_between(t_open, t_end) / 1e3;
  out.packets = packets.size();
  out.skipped = d.skipped;
  out.first_ts = packets[0].ts;
  out.close_stall_us = pipe.close_stall_us();
  return out;
}

int cmd_run(const Workload& w, const std::string& input, double seconds,
            const std::string& alerts_out) {
  const Clock::time_point start = Clock::now();
  std::vector<Replay> replays;
  bool identical = true;
  do {
    replays.push_back(w.overlapped ? replay_overlapped(w, input)
                                   : replay_serial(w, input));
    identical = identical &&
                same_alerts(replays.front().results, replays.back().results);
    // Keep only the first replay's results (for the alerts file).
    if (replays.size() > 1) replays.back().results.clear();
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
  const double rss = peak_rss_mb();
  const Replay& first = replays.front();
  write_alerts(first.results, alerts_out);

  // Everything below is outside the timed region.
  std::vector<double> walls, alert_ms, stall_ms, close_stall_ms;
  for (const Replay& r : replays) {
    walls.push_back(r.wall_s);
    alert_ms.insert(alert_ms.end(), r.alert_ms.begin(), r.alert_ms.end());
    stall_ms.insert(stall_ms.end(), r.stall_ms.begin(), r.stall_ms.end());
    close_stall_ms.push_back(static_cast<double>(r.close_stall_us) / 1e3);
  }
  std::uint64_t ops_offered = 0, ops_shed = 0, ring_full = 0, drain_yields = 0;
  std::vector<double> occupancy_max;
  for (const IntervalResult& r : first.results) {
    ops_offered += r.coverage.ops_offered;
    ops_shed += r.coverage.ops_shed;
    ring_full += r.epoch.ring_full_spins;
    drain_yields += r.epoch.drain_spin_yields;
    occupancy_max.push_back(r.epoch.shard_occupancy_max);
  }
  // Only a shedding pipeline counts offered ops; without a shedder every
  // recordable op is recorded.
  if (ops_offered == 0) ops_offered = recordable_ops(decode(w, input).trace);
  std::uint64_t final_alerts = 0;
  for (const IntervalResult& r : first.results) final_alerts += r.final.size();

  std::cout << Json()
                   .str("workload", w.name)
                   .count("replays", replays.size())
                   .count("identical_replays", identical ? 1 : 0)
                   .count("packets", first.packets)
                   .count("decode_skipped", first.skipped)
                   .count("first_ts_us", first.first_ts)
                   .count("intervals", first.results.size())
                   .count("first_interval", first.results.empty()
                                                ? 0
                                                : first.results[0].interval)
                   .count("final_alerts", final_alerts)
                   .count("ops_offered", ops_offered)
                   .count("ops_shed", ops_shed)
                   .list("wall_s", walls)
                   .list("alert_ms", alert_ms)
                   .list("stall_ms", stall_ms)
                   .num("peak_rss_mb", rss)
                   .list("close_stall_ms", close_stall_ms)
                   .count("ring_full_spins", ring_full)
                   .count("drain_spin_yields", drain_yields)
                   .list("shard_occupancy_max", occupancy_max)
                   .count("threads_driver", 1)
                   .count("threads_record", w.record_threads())
                   .count("threads_epoch", w.epoch_threads())
                   .str("simd_backend", simd::active_backend())
                   .count("thp", mem::thp_enabled() ? 1 : 0)
                   .count("numa", mem::numa_enabled() ? 1 : 0)
                   .done()
            << std::endl;
  return 0;
}

// --- trace (per-layer ledger) ----------------------------------------------

/// Busy time per layer, summed over the calls the composition times.
struct Ledger {
  Clock::duration decode{}, extract{}, observe{}, shed{}, record{}, merge{},
      clear{}, epoch{}, refine{};
  std::vector<double> epoch_ms;   ///< per interval
  std::uint64_t packets{0}, skipped{0};
  std::uint64_t ops{0};           ///< recordable ops extracted
  std::uint64_t ops_recorded{0};  ///< ops applied to a bank
  std::uint64_t ops_shed{0};
  std::size_t banks{0};
  Clock::duration wall{};
};

/// One replay composed from public calls in ONE thread, mirroring what the
/// workload's pipeline does: Pipeline (record -> process -> clear) for the
/// serial workload, OverlappedPipeline's ingest (extract -> flow-table
/// observe -> shed -> deal 256-op batches to shard replicas) and seal/epoch
/// (flow-table seal+install -> shed seal -> merge_shards -> reset ->
/// process -> refine) for the others. Each stage is timed per 256-packet
/// chunk or per interval, never per packet; a stage the workload's pipeline
/// does not have is still bracketed, so its time reads the timer floor.
std::vector<IntervalResult> traced_replay(const Workload& w,
                                          const std::string& path,
                                          Ledger& led) {
  const OverlappedPipelineConfig& oc = w.overlapped_config;
  const SketchBankConfig& bank_config = w.bank();
  HifindDetector detector(w.detector());
  LoadShedder shedder(w.overlapped ? oc.shed : LoadShedderConfig{});
  ActiveFlowTable flow_table(oc.refinery);
  const bool refine = w.overlapped && oc.refinery.enabled;
  // Serial: one bank. Overlapped: one generation of shard replicas plus the
  // merged bank (the pipeline itself holds two generations).
  std::vector<std::unique_ptr<SketchBank>> shards;
  const std::size_t num_shards = w.overlapped ? oc.record_threads : 1;
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards.push_back(std::make_unique<SketchBank>(bank_config));
  }
  std::vector<const SketchBank*> shard_ptrs;
  for (const auto& s : shards) shard_ptrs.push_back(s.get());
  std::unique_ptr<SketchBank> merged;
  std::unique_ptr<TaskPool> merge_pool;
  if (w.overlapped) {
    merged = std::make_unique<SketchBank>(bank_config);
    merge_pool = std::make_unique<TaskPool>(w.epoch_threads());
  }
  led.banks = w.overlapped ? 2 * num_shards + 1 : 1;
  const IntervalClock clock(w.detector().interval_seconds);
  const double threshold = w.detector().interval_threshold();

  std::vector<IntervalResult> results;
  std::vector<FlowCandidate> candidates;
  constexpr std::size_t kChunk = 256;  // packets per timed chunk
  constexpr std::size_t kBatch = 256;  // ops per record_ops call
  std::vector<RecordOp> ops(kChunk);
  std::vector<RecordOp> pending;
  pending.reserve(kBatch);
  std::size_t next_shard = 0;

  const auto record_pending = [&] {
    if (pending.empty()) return;
    const Clock::time_point t0 = Clock::now();
    shards[next_shard]->record_ops(pending, SketchBank::kGroupAll);
    led.record += Clock::now() - t0;
    led.ops_recorded += pending.size();
    next_shard = (next_shard + 1) % shards.size();
    pending.clear();
  };

  const auto close = [&](std::uint64_t interval) {
    record_pending();
    Clock::time_point t0 = Clock::now();
    FlowEvidence evidence;
    if (refine) {
      evidence = flow_table.seal(interval);
      flow_table.install(candidates, interval);
    }
    Clock::time_point t1 = Clock::now();
    led.refine += t1 - t0;
    ShedReport shed_report;
    if (w.overlapped) shed_report = shedder.seal_interval();
    t0 = Clock::now();
    led.shed += t0 - t1;
    if (w.overlapped) merged->merge_shards(shard_ptrs, merge_pool.get());
    t1 = Clock::now();
    led.merge += t1 - t0;
    if (w.overlapped) {
      for (const auto& s : shards) s->reset_all();
    }
    t0 = Clock::now();
    led.clear += t0 - t1;
    IntervalResult r =
        detector.process(w.overlapped ? *merged : *shards[0], interval);
    t1 = Clock::now();
    led.epoch += t1 - t0;
    led.epoch_ms.push_back(ms_between(t0, t1));
    if (!w.overlapped) shards[0]->clear();
    t0 = Clock::now();
    led.clear += t0 - t1;
    if (w.overlapped) {
      r.coverage.sample_coverage = shed_report.sample_coverage;
      r.coverage.shed = shed_report.shed();
      r.coverage.ops_offered = shed_report.ops_offered;
      r.coverage.ops_shed = shed_report.ops_shed;
      r.coverage.shed_level_max = shed_report.level_max;
      RefinementOutcome outcome =
          refine_alerts(r.final, evidence, threshold, oc.refinery);
      r.refined = std::move(outcome.refined);
      r.refinement = outcome.report;
    }
    candidates.clear();
    if (refine) {
      for (const Alert& a : r.final) candidates.push_back({a.key_kind, a.key});
      std::sort(candidates.begin(), candidates.end(),
                [](const FlowCandidate& x, const FlowCandidate& y) {
                  return x.kind != y.kind ? x.kind < y.kind : x.key < y.key;
                });
      candidates.erase(std::unique(candidates.begin(), candidates.end(),
                                   [](const FlowCandidate& x,
                                      const FlowCandidate& y) {
                                     return x.kind == y.kind && x.key == y.key;
                                   }),
                       candidates.end());
    }
    led.refine += Clock::now() - t0;
    results.push_back(std::move(r));
  };

  const Clock::time_point t_open = Clock::now();
  Decoded d = decode(w, path);
  Clock::time_point t_mark = Clock::now();
  led.decode += t_mark - t_open;
  const auto packets = d.trace.packets();
  if (packets.empty()) throw std::runtime_error("no packets decoded");
  led.packets = packets.size();
  led.skipped = d.skipped;
  std::uint64_t current =
      w.overlapped ? 0 : clock.interval_of(packets[0].ts);

  for (std::size_t i = 0; i < packets.size();) {
    const std::uint64_t iv = clock.interval_of(packets[i].ts);
    for (; current < iv; ++current) close(current);
    const Timestamp boundary = clock.interval_start(current + 1);
    // extract: classify + key-extract one chunk inside the interval.
    Clock::time_point t0 = Clock::now();
    std::size_t n_ops = 0;
    std::size_t j = i;
    for (; j < packets.size() && j - i < kChunk && packets[j].ts < boundary;
         ++j) {
      n_ops += make_record_op(packets[j], 1.0, ops[n_ops]);
    }
    i = j;
    Clock::time_point t1 = Clock::now();
    led.extract += t1 - t0;
    led.ops += n_ops;
    // observe: exact-flow evidence from the pre-shed ops.
    if (refine && !flow_table.empty()) {
      for (std::size_t k = 0; k < n_ops; ++k) flow_table.observe(ops[k]);
    }
    t0 = Clock::now();
    led.observe += t0 - t1;
    // shed: admit test and inline 2^k weights.
    std::size_t kept = n_ops;
    if (shedder.enabled()) {
      kept = 0;
      for (std::size_t k = 0; k < n_ops; ++k) {
        const double wgt = shedder.admit(ops[k]);
        if (wgt == 0.0) continue;
        RecordOp& op = ops[kept++];
        op = ops[k];
        if (wgt != 1.0) {
          op.delta *= wgt;
          op.weight *= wgt;
        }
      }
      led.ops_shed += n_ops - kept;
    }
    t1 = Clock::now();
    led.shed += t1 - t0;
    // record: deal 256-op batches to the shard replicas.
    for (std::size_t k = 0; k < kept; ++k) {
      pending.push_back(ops[k]);
      if (pending.size() == kBatch) record_pending();
    }
  }
  close(current);
  led.wall = Clock::now() - t_open;
  return results;
}

int cmd_trace(const Workload& w, const std::string& input,
              const std::string& alerts_out) {
  Ledger led;
  const std::vector<IntervalResult> results = traced_replay(w, input, led);
  write_alerts(results, alerts_out);

  std::uint64_t raw = 0, final_alerts = 0, work = 0, truncated = 0,
                dropped = 0, confirmed = 0, killed = 0;
  std::uint32_t level_max = 0;
  double coverage_min = 1.0;
  for (const IntervalResult& r : results) {
    raw += r.raw.size();
    final_alerts += r.final.size();
    work += r.epoch.inference_work;
    truncated += r.epoch.truncated;
    dropped += r.epoch.heavy_buckets_dropped;
    confirmed += r.refinement.confirmed;
    killed += r.refinement.killed;
    level_max = std::max(level_max, r.coverage.shed_level_max);
    coverage_min = std::min(coverage_min, r.coverage.sample_coverage);
  }
  // A replay always decodes packets and closes at least one interval.
  const auto n_pkts = static_cast<double>(led.packets);
  const auto n_iv = static_cast<double>(results.size());
  const double n_ops = static_cast<double>(std::max<std::uint64_t>(led.ops, 1));
  const double n_rec =
      static_cast<double>(std::max<std::uint64_t>(led.ops_recorded, 1));
  std::cout << Json()
                   .str("workload", w.name)
                   .count("packets", led.packets)
                   .count("decode_skipped", led.skipped)
                   .num("wall_s", ns_of(led.wall) / 1e9)
                   .num("decode_s", ns_of(led.decode) / 1e9)
                   .num("extract_s", ns_of(led.extract) / 1e9)
                   .num("observe_s", ns_of(led.observe) / 1e9)
                   .num("shed_s", ns_of(led.shed) / 1e9)
                   .num("record_s", ns_of(led.record) / 1e9)
                   .num("merge_s", ns_of(led.merge) / 1e9)
                   .num("clear_s", ns_of(led.clear) / 1e9)
                   .num("epoch_s", ns_of(led.epoch) / 1e9)
                   .num("refine_s", ns_of(led.refine) / 1e9)
                   .num("decode_ns_per_pkt", ns_of(led.decode) / n_pkts)
                   .num("extract_ns_per_pkt", ns_of(led.extract) / n_pkts)
                   .num("op_ratio", static_cast<double>(led.ops) / n_pkts)
                   .num("record_ns_per_op", ns_of(led.record) / n_rec)
                   .count("record_ops", led.ops_recorded)
                   .count("bank_bytes",
                          led.banks * SketchBank(w.bank()).memory_bytes())
                   .num("merge_ms_per_interval",
                        ns_of(led.merge) / 1e6 / n_iv)
                   .num("clear_ms_per_interval",
                        ns_of(led.clear) / 1e6 / n_iv)
                   .list("epoch_ms", led.epoch_ms)
                   .count("inference_work", work)
                   .count("truncated_intervals", truncated)
                   .count("heavy_buckets_dropped", dropped)
                   .num("shed_ns_per_op", ns_of(led.shed) / n_ops)
                   .count("shed_ops", led.ops_shed)
                   .num("shed_coverage_min", coverage_min)
                   .count("shed_level_max", level_max)
                   .num("refine_observe_ns_per_op",
                        ns_of(led.observe) / n_ops)
                   .num("refine_ms_per_interval",
                        ns_of(led.refine) / 1e6 / n_iv)
                   .count("refine_confirmed", confirmed)
                   .count("refine_killed", killed)
                   .count("alerts_raw", raw)
                   .count("alerts_final", final_alerts)
                   .done()
            << std::endl;
  return 0;
}

// --- score ------------------------------------------------------------------

int cmd_score(const Workload& w, const std::string& alerts_path,
              const std::string& truth_path) {
  const GroundTruthLedger truth = read_truth(truth_path);
  std::ifstream is(alerts_path);
  if (!is) throw std::runtime_error("cannot read " + alerts_path);
  std::vector<IntervalResult> results;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "interval") {
      results.emplace_back();
      ls >> results.back().interval;
    } else if (tag == "final") {
      int type = 0, kind = 0;
      std::string mag;
      Alert a;
      ls >> type >> a.interval >> kind >> a.key >> mag;
      if (!ls || results.empty()) {
        throw std::runtime_error("malformed alert line: " + line);
      }
      a.type = static_cast<AttackType>(type);
      a.key_kind = static_cast<KeyKind>(kind);
      a.magnitude = std::strtod(mag.c_str(), nullptr);
      results.back().final.push_back(a);
    }
  }
  const IntervalClock clock(w.detector().interval_seconds);
  const EvaluationSummary s = evaluate(results, truth, clock);
  std::cout << Json()
                   .num("precision", s.precision())
                   .num("event_recall", s.event_recall())
                   .count("alerts_total", s.alerts_total)
                   .count("alerts_matched", s.alerts_matched)
                   .count("attack_events", s.attack_events)
                   .count("attack_events_detected", s.attack_events_detected)
                   .done()
            << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage:\n"
               "  hifind_replay gen   <workload> <seed> <dir>\n"
               "  hifind_replay setup <workload>\n"
               "  hifind_replay run   <workload> <input> <seconds> <alerts>\n"
               "  hifind_replay trace <workload> <input> <alerts>\n"
               "  hifind_replay score <workload> <alerts> <truth>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    const Workload w = workload(argv[2]);
    // Thread budget: the driver, every record thread and every epoch
    // thread get a CPU of their own.
    const unsigned threads = 1 + w.record_threads() + w.epoch_threads();
    const unsigned nproc = std::thread::hardware_concurrency();
    if (cmd != "gen" && cmd != "score" && nproc != 0 && threads > nproc) {
      std::cerr << w.name << " needs " << threads << " threads, host has "
                << nproc << "\n";
      return 1;
    }
    if (cmd == "gen" && argc == 5) {
      return cmd_gen(w, std::strtoull(argv[3], nullptr, 10), argv[4]);
    }
    if (cmd == "setup" && argc == 3) return cmd_setup(w);
    if (cmd == "run" && argc == 6) {
      return cmd_run(w, argv[3], std::strtod(argv[4], nullptr), argv[5]);
    }
    if (cmd == "trace" && argc == 5) return cmd_trace(w, argv[3], argv[4]);
    if (cmd == "score" && argc == 5) return cmd_score(w, argv[3], argv[4]);
  } catch (const std::exception& e) {
    std::cerr << "hifind_replay " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  return usage();
}
