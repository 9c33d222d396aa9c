// Sec. 5.5.2 reproduction: memory accesses per packet.
//
// Paper: 15 accesses/packet for a 48-bit reversible sketch, 16 for a 64-bit
// one (their count includes the per-word hash SRAM reads of the modular
// hashing pipeline), and 5 per 2D sketch (one per matrix). We print both
// accountings for every sketch in the bank: counter accesses (one bucket
// read-modify-write per stage) and word-hash table reads.
//
// `--json` emits the same counts as one JSON object on stdout instead of
// the table; bench/run_record_pipeline.py folds that into
// BENCH_throughput.json so the access counts land next to the throughput
// numbers they explain.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "common/table_printer.hpp"
#include "detect/sketch_bank.hpp"

namespace hifind::bench {
namespace {

void run_json() {
  const SketchBank bank{SketchBankConfig{}};
  auto rs_counts = [&](const InvertibleSketch& rs, std::size_t* c,
                       std::size_t* w) {
    *c = rs.accesses_per_update();
    *w = rs.kind() == SketchBackendKind::kReversible
             ? rs.reversible().word_hash_reads_per_update()
             : 0;
  };
  std::size_t c48 = 0, w48 = 0, c64 = 0, w64 = 0;
  rs_counts(bank.rs_sip_dport(), &c48, &w48);
  rs_counts(bank.rs_sip_dip(), &c64, &w64);
  std::printf("{\n");
  std::printf("  \"rs48_counter_accesses\": %zu,\n", c48);
  std::printf("  \"rs48_word_hash_reads\": %zu,\n", w48);
  std::printf("  \"rs48_total\": %zu,\n", c48 + w48);
  std::printf("  \"rs64_counter_accesses\": %zu,\n", c64);
  std::printf("  \"rs64_word_hash_reads\": %zu,\n", w64);
  std::printf("  \"rs64_total\": %zu,\n", c64 + w64);
  std::printf("  \"verif_kary\": %zu,\n",
              bank.verif_sip_dport().accesses_per_update());
  std::printf("  \"os_kary\": %zu,\n",
              bank.os_dip_dport().accesses_per_update());
  std::printf("  \"twod\": %zu,\n",
              bank.twod_sipdip_dport().accesses_per_update());
  std::printf("  \"bank_per_packet\": %zu,\n", bank.accesses_per_packet());
  std::printf("  \"paper_rs48\": 15, \"paper_rs64\": 16, \"paper_2d\": 5\n");
  std::printf("}\n");
}

void run() {
  const SketchBank bank{SketchBankConfig{}};

  TablePrinter table("Sec 5.5.2. Memory accesses per recorded packet");
  table.header({"Sketch", "counter accesses", "word-hash reads", "total"});

  auto rs_row = [&](const char* name, const InvertibleSketch& rs) {
    const std::size_t c = rs.accesses_per_update();
    // Word-hash table reads are a reversible-backend artifact; the compact
    // backend hashes the full key directly.
    const std::size_t w = rs.kind() == SketchBackendKind::kReversible
                              ? rs.reversible().word_hash_reads_per_update()
                              : 0;
    table.row({name, std::to_string(c), std::to_string(w),
               std::to_string(c + w)});
  };
  rs_row("RS({SIP,Dport}) 48-bit", bank.rs_sip_dport());
  rs_row("RS({DIP,Dport}) 48-bit", bank.rs_dip_dport());
  rs_row("RS({SIP,DIP}) 64-bit", bank.rs_sip_dip());
  table.row({"verification k-ary (x3)",
             std::to_string(bank.verif_sip_dport().accesses_per_update()),
             "0",
             std::to_string(bank.verif_sip_dport().accesses_per_update())});
  table.row({"OS({DIP,Dport})",
             std::to_string(bank.os_dip_dport().accesses_per_update()), "0",
             std::to_string(bank.os_dip_dport().accesses_per_update())});
  table.row({"2D {SIP,DIP}x{Dport}",
             std::to_string(bank.twod_sipdip_dport().accesses_per_update()),
             "0",
             std::to_string(bank.twod_sipdip_dport().accesses_per_update())});
  table.row({"2D {SIP,Dport}x{DIP}",
             std::to_string(bank.twod_sipdport_dip().accesses_per_update()),
             "0",
             std::to_string(bank.twod_sipdport_dip().accesses_per_update())});
  table.print(std::cout);

  std::cout << "\nWhole bank, per SYN/SYN-ACK packet: "
            << bank.accesses_per_packet()
            << " counter accesses across all sketches (recordable in "
               "parallel or pipelined per sketch — paper Sec. 5.5.2).\n";
  std::cout << "Paper's comparable figures: 15/packet (48-bit RS, counting "
               "hash reads), 16/packet (64-bit RS), 5/packet per 2D "
               "sketch.\n";
}

}  // namespace
}  // namespace hifind::bench

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--json") == 0) {
    hifind::bench::run_json();
  } else {
    hifind::bench::run();
  }
  return 0;
}
