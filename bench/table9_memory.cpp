// Table 9 reproduction: memory comparison under worst-case traffic
// (all-40-byte packets at full link utilization, every packet a distinct
// spoofed flow).
//
// Paper (bytes):
//                         2.5Gbps/1min  2.5Gbps/5min  10Gbps/1min  10Gbps/5min
//   HiFIND w/ sketch      13.2M         13.2M         13.2M        13.2M
//   HiFIND w/ complete    10.3G         51.6G         41.25G       206G
//   TRW                   5.63G         28G           22.5G        112.5G
//
// We print the same grid from the analytic worst-case model (per-entry costs
// documented in core/memory_model.hpp) for the flow-table baselines, and the
// MEASURED size of our sketch bank: 4-byte counters like the paper's, plus
// the 8-byte lifetime SYN/ACK history.
#include <iostream>

#include "common/table_printer.hpp"
#include "core/memory_model.hpp"
#include "detect/sketch_bank.hpp"

namespace hifind::bench {
namespace {

void run() {
  const SketchBank bank{SketchBankConfig{}};
  const double sketch_bytes = static_cast<double>(bank.memory_bytes());

  TablePrinter table("Table 9. Memory comparison (bytes), worst-case "
                     "40-byte-packet traffic");
  table.header({"Methods", "2.5G/1min", "2.5G/5min", "10G/1min",
                "10G/5min"});

  const WorstCaseTraffic grid[] = {
      {.link_gbps = 2.5, .window_minutes = 1},
      {.link_gbps = 2.5, .window_minutes = 5},
      {.link_gbps = 10, .window_minutes = 1},
      {.link_gbps = 10, .window_minutes = 5},
  };

  std::vector<std::string> sketch_row{"HiFIND w/ sketch"};
  std::vector<std::string> complete_row{"HiFIND w/ complete info"};
  std::vector<std::string> trw_row{"TRW"};
  for (const auto& t : grid) {
    sketch_row.push_back(format_bytes(sketch_bytes));
    complete_row.push_back(
        format_bytes(static_cast<double>(complete_info_bytes(t))));
    trw_row.push_back(format_bytes(static_cast<double>(trw_bytes(t))));
  }
  table.row(sketch_row);
  table.row(complete_row);
  table.row(trw_row);
  table.print(std::cout);

  std::cout << "\nMeasured sketch-bank footprint: "
            << format_bytes(sketch_bytes)
            << " (4-byte counters, one interval; paper reports 13.2M).\n";
  std::cout << "Sketch memory is constant in link speed and window; the "
               "flow-table alternatives grow to tens/hundreds of GB.\n";
}

}  // namespace
}  // namespace hifind::bench

int main() {
  hifind::bench::run();
  return 0;
}
