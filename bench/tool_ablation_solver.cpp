// Solver ablation: quantifies what each ingredient of the MILP strategy
// contributes on real analysis instances (DESIGN.md §5.5 "Solver
// strategy").  For a batch of delay MILPs from generated task sets it
// compares:
//   * alpha-first branch priority        vs. plain most-fractional,
//   * the relative-gap termination (2%)  vs. proving optimality,
//   * warm-started node relaxations      vs. cold per-node solves,
//   * presolve + node propagation        vs. solving the model as built,
//   * the sparse revised-simplex kernel  vs. the dense tableau reference,
// reporting nodes, LP iterations, simplex pivots, pivot throughput,
// refactorization stats, wall time, and bound quality.  Besides the human-readable table the bench writes
// BENCH_solver.json, which tools/perf_check.py compares against the
// committed baseline in CI.
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/milp_formulation.hpp"
#include "gen/generator.hpp"
#include "lp/milp.hpp"
#include "rt/task.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

#include "bench_common.hpp"

using namespace mcs;

namespace {

struct Strategy {
  const char* name;
  bool alpha_priority;
  double relative_gap;
  bool warm_start;
  bool presolve;
  lp::SimplexKernel kernel = lp::SimplexKernel::kSparse;
};

struct Tally {
  std::size_t nodes = 0;
  std::size_t lp_iters = 0;
  double seconds = 0.0;
  double bound_sum = 0.0;
  std::size_t solved = 0;
  std::uint64_t warm_pivots = 0;
  std::uint64_t cold_pivots = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_fallbacks = 0;
  std::uint64_t presolve_rows_removed = 0;
  std::uint64_t presolve_cols_removed = 0;
  std::uint64_t refactorizations = 0;
  std::uint64_t eta_nnz = 0;
  std::uint64_t bound_flips = 0;
  std::uint64_t devex_resets = 0;
  std::uint64_t fixed_cols_skipped = 0;
};

std::uint64_t counter(const support::telemetry::Snapshot& snap,
                      const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace

namespace mcs::bench {

int tool_ablation_solver_main() {
  // The first six strategies isolate branching/gap/warm-start with
  // presolve off (comparable across baselines predating it); the next two
  // measure what the reduction pipeline adds on top of the warm paths.
  // The "plain, 2%gap" pair is the headline presolve axis perf_check.py
  // gates on.  The two [dense] twins form the kernel axis: the heaviest
  // strategy pair gates the sparse kernel's same-run wall speedup, and the
  // prove pair pins bound identity (both kernels must prove the same
  // optimum; the 2%-gap strategies hit node limits at different trees, so
  // their bounds legitimately differ).
  constexpr Strategy kStrategies[] = {
      {"alpha+2%gap, warm", true, 0.02, true, false},
      {"alpha+2%gap, cold", true, 0.02, false, false},
      {"alpha, prove, warm", true, 0.0, true, false},
      {"alpha, prove, cold", true, 0.0, false, false},
      {"plain, 2%gap, warm", false, 0.02, true, false},
      {"plain, 2%gap, cold", false, 0.02, false, false},
      {"plain, 2%gap, warm+pre", false, 0.02, true, true},
      {"alpha+2%gap, warm+pre", true, 0.02, true, true},
      {"plain, 2%gap, warm [dense]", false, 0.02, true, false,
       lp::SimplexKernel::kDense},
      {"alpha, prove, warm [dense]", true, 0.0, true, false,
       lp::SimplexKernel::kDense},
  };

  // Pivot counters come from telemetry; the bench insists on it so the
  // JSON is complete regardless of the environment.
  support::telemetry::set_enabled(true);

  // Batch of representative delay MILPs: lowest-priority task of generated
  // sets, deadline-sized window (the hardest instance of each set).
  std::vector<analysis::DelayMilp> instances;
  support::Rng rng(99);
  for (int s = 0; s < 10; ++s) {
    gen::GeneratorConfig cfg;
    cfg.num_tasks = 5;
    cfg.utilization = 0.45;
    cfg.gamma = 0.3;
    auto tasks = gen::generate_task_set(cfg, rng);
    const auto lowest = tasks.by_priority().back();
    const rt::Time window =
        tasks[lowest].deadline - tasks[lowest].exec - tasks[lowest].copy_out;
    instances.push_back(analysis::build_delay_milp(
        tasks, lowest, std::max<rt::Time>(window, 0),
        analysis::FormulationCase::kNls));
  }

  std::cout << "Solver strategy ablation over " << instances.size()
            << " deadline-window delay MILPs (n=5, U=0.45, gamma=0.3):\n\n"
            << std::left << std::setw(22) << "strategy" << std::setw(8)
            << "solved" << std::setw(10) << "nodes" << std::setw(12)
            << "lp iters" << std::setw(12) << "pivots" << std::setw(8)
            << "sec" << "mean bound\n";

  std::vector<Tally> tallies;
  for (const Strategy& strategy : kStrategies) {
    support::telemetry::reset();
    Tally tally;
    for (const auto& inst : instances) {
      lp::MilpOptions options;
      options.max_nodes = 30000;
      options.relative_gap = strategy.relative_gap;
      options.use_warm_start = strategy.warm_start;
      options.use_presolve = strategy.presolve;
      options.lp.kernel = strategy.kernel;
      if (strategy.alpha_priority) {
        options.branch_priority.assign(inst.model.num_variables(), 0);
        for (const auto a : inst.alpha_vars) {
          options.branch_priority[a.index] = 1;
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      const auto result = lp::solve_milp(inst.model, options);
      tally.seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      tally.nodes += result.nodes;
      tally.lp_iters += result.lp_iterations;
      if (result.status == lp::SolveStatus::kOptimal ||
          result.status == lp::SolveStatus::kNodeLimit) {
        tally.bound_sum += result.best_bound;
        ++tally.solved;
      }
    }
    const auto snap = support::telemetry::snapshot();
    tally.warm_pivots = counter(snap, "simplex.warm_pivots");
    tally.cold_pivots = counter(snap, "simplex.cold_pivots");
    tally.warm_hits = counter(snap, "milp.warm_start_hits");
    tally.warm_fallbacks = counter(snap, "milp.warm_start_fallbacks");
    tally.presolve_rows_removed = counter(snap, "lp.presolve.rows_removed");
    tally.presolve_cols_removed = counter(snap, "lp.presolve.cols_removed");
    tally.refactorizations = counter(snap, "simplex.refactorizations");
    tally.eta_nnz = counter(snap, "simplex.eta_nnz");
    tally.bound_flips = counter(snap, "simplex.bound_flips");
    tally.devex_resets = counter(snap, "simplex.devex_resets");
    tally.fixed_cols_skipped = counter(snap, "simplex.fixed_cols_skipped");
    tallies.push_back(tally);

    std::cout << std::left << std::setw(22) << strategy.name << std::setw(8)
              << tally.solved << std::setw(10) << tally.nodes << std::setw(12)
              << tally.lp_iters << std::setw(12)
              << tally.warm_pivots + tally.cold_pivots << std::setw(8)
              << std::fixed << std::setprecision(2) << tally.seconds
              << std::setprecision(0)
              << tally.bound_sum / static_cast<double>(tally.solved) << "\n";
  }

  // Warm-vs-cold summary over the strategy pairs (each warm strategy is
  // immediately followed by its cold twin above).  Presolve strategies and
  // the dense kernel twins sit outside the pairing and are summarized
  // separately below.
  std::uint64_t warm_total = 0;
  std::uint64_t cold_total = 0;
  double warm_sec = 0.0;
  double cold_sec = 0.0;
  for (std::size_t k = 0; k < tallies.size(); ++k) {
    if (kStrategies[k].presolve ||
        kStrategies[k].kernel != lp::SimplexKernel::kSparse) {
      continue;
    }
    const auto pivots = tallies[k].warm_pivots + tallies[k].cold_pivots;
    if (kStrategies[k].warm_start) {
      warm_total += pivots;
      warm_sec += tallies[k].seconds;
    } else {
      cold_total += pivots;
      cold_sec += tallies[k].seconds;
    }
  }
  const double pivot_ratio =
      warm_total > 0 ? static_cast<double>(cold_total) /
                           static_cast<double>(warm_total)
                     : 0.0;
  std::cout << "\nwarm vs cold: " << warm_total << " vs " << cold_total
            << " pivots (" << std::setprecision(2) << pivot_ratio
            << "x reduction), " << warm_sec << "s vs " << cold_sec
            << "s wall\n"
            << "(equal mean bounds across strategies = same answer)\n";

  // Presolve axis: same strategy ("plain, 2%gap, warm") with and without
  // the reduction pipeline, from the same run on the same machine, so the
  // wall-time ratio is meaningful (unlike cross-run absolute times).
  double pre_off_sec = 0.0;
  double pre_on_sec = 0.0;
  std::uint64_t pre_rows_removed = 0;
  std::uint64_t pre_cols_removed = 0;
  for (std::size_t k = 0; k < tallies.size(); ++k) {
    const std::string name = kStrategies[k].name;
    if (name == "plain, 2%gap, warm") {
      pre_off_sec = tallies[k].seconds;
    } else if (name == "plain, 2%gap, warm+pre") {
      pre_on_sec = tallies[k].seconds;
      pre_rows_removed = tallies[k].presolve_rows_removed;
      pre_cols_removed = tallies[k].presolve_cols_removed;
    }
  }
  const double presolve_speedup =
      pre_on_sec > 0.0 ? pre_off_sec / pre_on_sec : 0.0;
  std::cout << "presolve axis (plain, 2%gap, warm): " << std::setprecision(2)
            << pre_off_sec << "s without vs " << pre_on_sec << "s with ("
            << presolve_speedup << "x), removed " << pre_rows_removed
            << " rows / " << pre_cols_removed << " cols\n";

  // Kernel axis: the same heaviest strategy through both kernels, from the
  // same run on the same machine.  The prove pair must land on identical
  // mean bounds (both prove the true optimum); the 2%-gap pair carries the
  // wall-time speedup perf_check.py gates on.
  double sparse_sec = 0.0;
  double dense_sec = 0.0;
  double prove_bound_sparse = 0.0;
  double prove_bound_dense = 0.0;
  for (std::size_t k = 0; k < tallies.size(); ++k) {
    const std::string name = kStrategies[k].name;
    const double mean_bound =
        tallies[k].bound_sum / static_cast<double>(tallies[k].solved);
    if (name == "plain, 2%gap, warm") {
      sparse_sec = tallies[k].seconds;
    } else if (name == "plain, 2%gap, warm [dense]") {
      dense_sec = tallies[k].seconds;
    } else if (name == "alpha, prove, warm") {
      prove_bound_sparse = mean_bound;
    } else if (name == "alpha, prove, warm [dense]") {
      prove_bound_dense = mean_bound;
    }
  }
  const double kernel_speedup =
      sparse_sec > 0.0 ? dense_sec / sparse_sec : 0.0;
  std::cout << "kernel axis (plain, 2%gap, warm): sparse "
            << std::setprecision(2) << sparse_sec << "s vs dense "
            << dense_sec << "s (" << kernel_speedup << "x)\n"
            << "kernel bound identity (alpha, prove, warm): sparse "
            << std::setprecision(6) << prove_bound_sparse << " vs dense "
            << prove_bound_dense << "\n";

  std::ofstream json("BENCH_solver.json");
  json << "{\n  \"schema\": \"mcs-bench-solver-v1\",\n"
       << "  \"instances\": " << instances.size() << ",\n"
       << "  \"strategies\": [\n";
  for (std::size_t k = 0; k < tallies.size(); ++k) {
    const Tally& t = tallies[k];
    const std::uint64_t pivots = t.warm_pivots + t.cold_pivots;
    const double pivot_rate =
        t.seconds > 0.0 ? static_cast<double>(pivots) / t.seconds : 0.0;
    json << "    {\"name\": \"" << kStrategies[k].name << "\", "
         << "\"kernel\": \""
         << (kStrategies[k].kernel == lp::SimplexKernel::kSparse ? "sparse"
                                                                 : "dense")
         << "\", \"warm_start\": "
         << (kStrategies[k].warm_start ? "true" : "false")
         << ", \"presolve\": " << (kStrategies[k].presolve ? "true" : "false")
         << ", \"solved\": " << t.solved << ", \"nodes\": " << t.nodes
         << ", \"lp_iterations\": " << t.lp_iters
         << ", \"pivots\": " << pivots
         << ", \"warm_pivots\": " << t.warm_pivots
         << ", \"cold_pivots\": " << t.cold_pivots
         << ", \"pivot_rate\": " << std::fixed << std::setprecision(0)
         << pivot_rate
         << ", \"warm_start_hits\": " << t.warm_hits
         << ", \"warm_start_fallbacks\": " << t.warm_fallbacks
         << ", \"refactorizations\": " << t.refactorizations
         << ", \"eta_nnz\": " << t.eta_nnz
         << ", \"bound_flips\": " << t.bound_flips
         << ", \"devex_resets\": " << t.devex_resets
         << ", \"fixed_cols_skipped\": " << t.fixed_cols_skipped
         << ", \"presolve_rows_removed\": " << t.presolve_rows_removed
         << ", \"presolve_cols_removed\": " << t.presolve_cols_removed
         << ", \"wall_ms\": " << std::setprecision(1)
         << t.seconds * 1000.0 << ", \"mean_bound\": "
         << std::setprecision(6)
         << t.bound_sum / static_cast<double>(t.solved) << "}"
         << (k + 1 < tallies.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"summary\": {\"warm_pivots_total\": " << warm_total
       << ", \"cold_pivots_total\": " << cold_total
       << ", \"pivot_reduction\": " << std::setprecision(3) << pivot_ratio
       << ", \"warm_wall_ms\": " << std::setprecision(1) << warm_sec * 1000.0
       << ", \"cold_wall_ms\": " << cold_sec * 1000.0
       << ", \"presolve_speedup\": " << std::setprecision(3)
       << presolve_speedup
       << ", \"presolve_rows_removed\": " << pre_rows_removed
       << ", \"presolve_cols_removed\": " << pre_cols_removed
       << ", \"sparse_kernel_speedup\": " << kernel_speedup << "}\n}\n";
  json.close();
  std::cout << "wrote BENCH_solver.json\n";

  write_bench_telemetry("ablation_solver");
  return 0;
}

}  // namespace mcs::bench
