// Shared entry points of the mcs_bench multi-tool binary.
//
// Every figure/ablation sweep and every custom bench tool is reachable as
// `mcs_bench <name> [options]`.
#pragma once

#include <filesystem>
#include <iostream>
#include <string>

#include "support/telemetry.hpp"

namespace mcs::bench {

/// Writes <name>.telemetry.json into `out_dir` when telemetry is enabled.
/// Shared by every bench tool that produces a CSV.
inline void write_bench_telemetry(const std::string& name,
                                  const std::filesystem::path& out_dir = ".") {
  if (!support::telemetry::enabled()) return;
  const auto path = out_dir / (name + ".telemetry.json");
  support::telemetry::write_json_file(path);
  std::cout << "wrote " << path.string() << "\n";
}

/// Custom (non-sweep-registry) bench tools.
int tool_fig1_main();
int tool_tightness_main();
int tool_analysis_main();
int tool_ablation_solver_main();

/// The mcs_bench driver: `mcs_bench <sweep|tool|list|merge> [options]`.
int mcs_bench_main(int argc, char** argv);

}  // namespace mcs::bench
