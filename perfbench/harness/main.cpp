// perfbench_harness: runs one benchmark workload and prints the result JSON
// as its last line of standard output.
//
//   perfbench_harness --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                    [--serve-binary=<path>] [--out-dir=<dir>]
//                    [--unit=<round>:<point>:<slot>]
//
// --unit replays one sweep unit with telemetry on (the command the traced
// run prints next to each of its slowest units).
#include <iostream>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string key = arg.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? std::string() : arg.substr(eq + 1);
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
      } else if (key == "--serve-binary") {
        options.serve_binary = value;
      } else if (key == "--out-dir") {
        options.out_dir = value;
      } else if (key == "--unit") {
        options.unit = value;
      } else {
        std::cerr << "unknown argument " << arg << "\n";
        return 2;
      }
    }
    if (options.workload.rfind("sweep_", 0) == 0) {
      return perfbench::run_sweep_workload(options);
    }
    if (options.workload.rfind("serve_", 0) == 0) {
      return perfbench::run_serve_workload(options);
    }
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
