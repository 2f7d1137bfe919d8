// The sweep workload: a Figure 2 slice run on the repo's sweep runner
// (exp::run_sweep) with the figure's SweepSpec and solver settings.
//
// The timed region is a sequence of whole rounds.  Round r is the sweep
// slice with seed derive_seed(--seed, r), so every round analyzes fresh task
// sets and a run covers as many distinct units as fit into --seconds.  The
// untraced pass times the program's own unit evaluator
// (exp::experiment_sweep_spec); the traced pass times analyze_unit, which
// makes the same calls with a span around each layer.  Both keep each unit's
// generator state, so the checks after the timed region re-derive the unit
// and its bounds.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <thread>

#include "analysis/engine.hpp"
#include "bench.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "gen/generator.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace {

namespace analysis = mcs::analysis;
namespace exp = mcs::exp;
namespace telemetry = mcs::support::telemetry;
using analysis::Approach;
using mcs::support::Rng;

struct SweepShape {
  const char* name;
  char inset;  ///< Figure 2 inset whose configuration is used
  std::vector<double> values;
  std::size_t sets_per_point;
};

// Figure 2(a) (n=4, gamma=0.1, beta=0.3) over its light U range.  From
// U=0.4 on, a few units per round take seconds and decide the figures of a
// whole run (README, "Dropped: sweep_hard").
const SweepShape kSweepWide{"sweep_wide", 'a', {0.1, 0.2, 0.3}, 400};

// Metric layout of exp::experiment_sweep_spec.
enum Metric : std::size_t { kProposed = 0, kWp, kNps };

/// One unit's task set and the three analyses of it, with their bounds.
struct UnitRecord {
  mcs::rt::TaskSet tasks;
  analysis::ApproachResult nps;
  analysis::WpResult wp;
  bool ran_greedy = false;
  analysis::ProposedResult greedy;
  bool proposed_ok = false;
  std::size_t nodes = 0;
};

/// The calls exp::experiment_sweep_spec's evaluator makes for one unit
/// (generation, one AnalysisEngine, NPS + WP + greedy seeded with WP as
/// round 0), each under a span, keeping the results.
UnitRecord analyze_unit(const exp::ExperimentConfig& config, double x,
                        Rng& rng) {
  UnitRecord rec;
  mcs::gen::GeneratorConfig gen_cfg = config.base;
  gen_cfg.utilization = x;
  {
    const ScopedSpan span("gen.generate");
    rec.tasks = mcs::gen::generate_task_set(gen_cfg, rng);
  }
  analysis::AnalysisEngine engine;
  {
    const ScopedSpan span("analysis.nps");
    rec.nps =
        engine.analyze(rec.tasks, Approach::kNonPreemptive, config.analysis);
  }
  {
    const ScopedSpan span("analysis.wp");
    rec.wp = engine.analyze_wp(rec.tasks, config.analysis);
  }
  rec.nodes = rec.wp.total_milp_nodes;
  rec.proposed_ok = rec.wp.schedulable;
  if (!rec.proposed_ok) {
    const ScopedSpan span("analysis.greedy");
    rec.greedy = engine.analyze_proposed(rec.tasks, config.analysis, &rec.wp);
    rec.ran_greedy = true;
    rec.proposed_ok = rec.greedy.schedulable;
    rec.nodes += rec.greedy.total_milp_nodes;
  }
  return rec;
}

exp::ExperimentConfig round_config(const SweepShape& shape,
                                   std::uint64_t seed, std::size_t round) {
  exp::ExperimentConfig config = exp::figure2_config(shape.inset);
  config.values = shape.values;
  config.tasksets_per_point = shape.sets_per_point;
  config.seed = mcs::support::derive_seed(seed, round);
  return config;
}

// The SweepSpec of one round.  Its evaluator records the generator state
// each unit starts from in `rngs` and then runs the program's evaluator, or
// analyze_unit when `traced`.
exp::SweepSpec round_spec(const exp::ExperimentConfig& config, bool traced,
                          std::vector<Rng>& rngs) {
  exp::SweepSpec spec = exp::experiment_sweep_spec(config);
  rngs.assign(spec.values.size() * spec.slots_per_point, Rng(0));
  auto inner = spec.evaluate;
  if (traced) {
    inner = [config](const exp::SweepUnit& unit, Rng& rng) {
      const UnitRecord rec = analyze_unit(config, unit.x, rng);
      const bool proposed_fb = rec.ran_greedy
                                   ? rec.greedy.any_relaxation_fallback
                                   : rec.wp.any_relaxation_fallback;
      return std::vector<std::uint64_t>{
          rec.proposed_ok ? 1u : 0u,
          rec.wp.schedulable ? 1u : 0u,
          rec.nps.schedulable ? 1u : 0u,
          (rec.wp.any_relaxation_fallback || proposed_fb) ? 1u : 0u,
          rec.wp.any_relaxation_fallback ? 1u : 0u,
          proposed_fb ? 1u : 0u};
    };
  }
  spec.evaluate = [inner, &rngs](const exp::SweepUnit& unit, Rng& rng) {
    rngs[unit.index] = rng;
    return inner(unit, rng);
  };
  return spec;
}

std::vector<mcs::rt::Time> bounds_of(
    const std::vector<analysis::TaskBoundResult>& per_task) {
  std::vector<mcs::rt::Time> bounds;
  for (const auto& b : per_task) bounds.push_back(b.wcrt);
  return bounds;
}

struct FinishedUnit {
  std::size_t round = 0;
  exp::UnitOutcome outcome;
  Rng rng{0};             ///< generator state the unit started from
  std::size_t nodes = 0;  ///< B&B nodes, filled in by the checks
};

// Output checks of one unit; returns the first problem or "".
std::string check_unit(const SweepShape& shape, const Options& options,
                       FinishedUnit& unit) {
  if (!unit.outcome.ok) return "error record: " + unit.outcome.error;
  const std::vector<std::uint64_t>& m = unit.outcome.metrics;
  if (m[kProposed] < m[kWp]) {
    return "proposed < wp2016 (greedy round 0 is the WP analysis)";
  }
  const exp::ExperimentConfig config =
      round_config(shape, options.seed, unit.round);
  Rng rng = unit.rng;
  const UnitRecord rec =
      analyze_unit(config, shape.values[unit.outcome.point], rng);
  unit.nodes = rec.nodes;
  if (rec.proposed_ok != (m[kProposed] != 0) ||
      rec.wp.schedulable != (m[kWp] != 0) ||
      rec.nps.schedulable != (m[kNps] != 0)) {
    return "verdicts differ from a re-run of the unit";
  }
  const std::uint64_t check_seed = mcs::support::derive_seed(
      options.seed, unit.round,
      unit.outcome.point * 1000003u + unit.outcome.slot);
  constexpr std::size_t kSporadic = 3;
  std::vector<SoundnessReport> reports;
  if (rec.nps.schedulable) {
    reports.push_back(check_by_simulation(rec.tasks,
                                          mcs::sim::Protocol::kNonPreemptive,
                                          rec.nps.wcrt, check_seed, kSporadic));
  }
  if (rec.wp.schedulable) {
    reports.push_back(check_by_simulation(
        rec.tasks, mcs::sim::Protocol::kWasilyPellizzoni,
        bounds_of(rec.wp.per_task), check_seed + 1, kSporadic));
  }
  if (rec.proposed_ok) {
    // Proposed = WP's all-NLS verdict when WP succeeded, else the greedy
    // marking and its bounds.
    mcs::rt::TaskSet marked = rec.tasks;
    std::vector<mcs::rt::Time> bounds = bounds_of(rec.wp.per_task);
    if (rec.ran_greedy) {
      for (std::size_t i = 0; i < marked.size(); ++i) {
        marked[i].latency_sensitive = rec.greedy.ls_flags[i];
      }
      bounds = bounds_of(rec.greedy.per_task);
    }
    reports.push_back(check_by_simulation(marked,
                                          mcs::sim::Protocol::kProposed,
                                          bounds, check_seed + 2, kSporadic));
  }
  for (const auto& r : reports) {
    if (!r.ok) return r.detail;
  }
  return "";
}

// One set-up sample for round `round`, in CPU seconds: building its spec,
// drawing its task sets from their (seed, point, slot) streams, and starting
// and stopping a worker pool of the runner's size.
double setup_sample(const SweepShape& shape, const Options& options,
                    std::size_t round, std::size_t threads) {
  const double t0 = cpu_seconds();
  std::vector<Rng> rngs;
  const exp::ExperimentConfig config = round_config(shape, options.seed, round);
  const exp::SweepSpec spec = round_spec(config, false, rngs);
  std::vector<mcs::rt::TaskSet> inputs;
  for (std::size_t p = 0; p < spec.values.size(); ++p) {
    mcs::gen::GeneratorConfig g = config.base;
    g.utilization = spec.values[p];
    for (std::size_t slot = 0; slot < spec.slots_per_point; ++slot) {
      Rng rng(mcs::support::derive_seed(config.seed, p, slot));
      inputs.push_back(mcs::gen::generate_task_set(g, rng));
    }
  }
  { const mcs::support::ThreadPool pool(threads); }
  return cpu_seconds() - t0;
}

/// What a pass keeps of its units.
struct Tally {
  std::vector<FinishedUnit> units;
  std::size_t rounds = 0;
  double timed_wall = 0.0;
  double capacity = 0.0;  ///< threads x round wall, summed
};

// Runs whole rounds until their summed wall time reaches `seconds` (at least
// one round), or exactly `fixed_rounds` rounds when that is non-zero.  With
// `setup`, kSetupPerRound set-up samples are taken before each round, so
// they are spread over the run like the timed work.
constexpr int kSetupPerRound = 3;
Tally run_rounds(const SweepShape& shape, const Options& options,
                 std::size_t threads, double seconds, std::size_t fixed_rounds,
                 bool traced, std::vector<double>* setup = nullptr) {
  Tally tally;
  for (std::size_t r = 0;; ++r) {
    if (fixed_rounds != 0 ? r >= fixed_rounds
                          : (r > 0 && tally.timed_wall >= seconds)) {
      break;
    }
    for (int i = 0; setup != nullptr && i < kSetupPerRound; ++i) {
      setup->push_back(setup_sample(shape, options, r, threads));
    }
    std::vector<Rng> rngs;
    const exp::ExperimentConfig config = round_config(shape, options.seed, r);
    const exp::SweepSpec spec = round_spec(config, traced, rngs);
    exp::RunnerOptions runner;
    runner.threads = threads;
    const double t0 = now_seconds();
    exp::SweepRunResult run = exp::run_sweep(spec, runner);
    const double wall = now_seconds() - t0;
    tally.timed_wall += wall;
    tally.capacity += static_cast<double>(threads) * wall;
    ++tally.rounds;
    for (exp::UnitOutcome& outcome : run.outcomes) {
      const Rng rng =
          rngs[outcome.point * spec.slots_per_point + outcome.slot];
      tally.units.push_back({r, std::move(outcome), rng, 0});
    }
  }
  return tally;
}

struct CheckTotals {
  std::uint64_t failed = 0;
  double seconds = 0.0;
};

// Checks every unit on `threads` workers.  Telemetry and spans must be off,
// so that the re-runs do not count as the timed work.
CheckTotals check_units(const SweepShape& shape, const Options& options,
                        std::size_t threads, std::vector<FinishedUnit>& units) {
  const double t0 = now_seconds();
  std::vector<std::string> problems(units.size());
  {
    mcs::support::ThreadPool pool(threads);
    for (std::size_t i = 0; i < units.size(); ++i) {
      pool.submit([&, i] { problems[i] = check_unit(shape, options, units[i]); });
    }
    pool.wait_idle();
  }
  CheckTotals totals;
  totals.seconds = now_seconds() - t0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (problems[i].empty()) continue;
    ++totals.failed;
    std::cerr << "FAILED unit round=" << units[i].round
              << " point=" << units[i].outcome.point
              << " slot=" << units[i].outcome.slot << ": " << problems[i]
              << "\n";
  }
  return totals;
}

int replay_unit(const SweepShape& shape, const Options& options) {
  std::size_t round = 0, point = 0, slot = 0;
  char sep1 = 0, sep2 = 0;
  std::istringstream in(options.unit);
  if (!(in >> round >> sep1 >> point >> sep2 >> slot) || sep1 != ':' ||
      sep2 != ':' || point >= shape.values.size() ||
      slot >= shape.sets_per_point) {
    std::cerr << "--unit expects <round>:<point>:<slot> within the sweep\n";
    return 2;
  }
  telemetry::set_enabled(true);
  tracer().enable(true);
  const exp::ExperimentConfig config = round_config(shape, options.seed, round);
  Rng rng(mcs::support::derive_seed(config.seed, point, slot));
  const double t0 = now_seconds();
  const UnitRecord rec = analyze_unit(config, shape.values[point], rng);
  const double seconds = now_seconds() - t0;
  std::cout << "unit round=" << round << " point=" << point << " slot=" << slot
            << " U=" << shape.values[point] << " seconds=" << seconds
            << " nodes=" << rec.nodes << " nps=" << rec.nps.schedulable
            << " wp=" << rec.wp.schedulable << " proposed=" << rec.proposed_ok
            << "\n";
  for (const auto& [name, total] : tracer().totals()) {
    std::cout << "  span " << name << " " << total << " s\n";
  }
  telemetry::write_json(telemetry::snapshot(), std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int run_sweep_workload(const Options& options) {
  if (options.workload != kSweepWide.name) {
    std::cerr << "unknown sweep workload " << options.workload << "\n";
    return 2;
  }
  const SweepShape& shape = kSweepWide;
  if (!options.unit.empty()) return replay_unit(shape, options);

  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  telemetry::set_enabled(false);
  tracer().enable(false);

  // One untimed warm-up round on inputs of its own (the allocator and the
  // pool's threads settle), then the timed rounds.
  {
    Options warm = options;
    warm.seed = mcs::support::derive_seed(options.seed, 0x3a7e);
    (void)run_rounds(shape, warm, threads, 0.0, 1, false);
  }
  std::vector<double> setup_samples;
  Tally tally = run_rounds(shape, options, threads, options.seconds, 0, false,
                           &setup_samples);
  const double rss = peak_rss_mb_self();

  Result result;
  if (options.trace) {
    // The same rounds again, with the program's telemetry and the spans on;
    // the per-layer numbers and the checks come from this pass.
    telemetry::reset();
    telemetry::set_enabled(true);
    tracer().enable(true);
    Tally traced = run_rounds(shape, options, threads, 0.0, tally.rounds, true);
    tracer().enable(false);
    LayerNumbers layers;
    load_telemetry_snapshot(layers);
    telemetry::set_enabled(false);
    layers.spans = tracer().totals();
    layers.trace_overhead_ratio = traced.timed_wall / tally.timed_wall;
    double busy = 0.0;
    for (const FinishedUnit& u : traced.units) busy += u.outcome.seconds;
    layers.worker_idle_s = traced.capacity - busy;
    tally = std::move(traced);
    const CheckTotals checks = check_units(shape, options, threads, tally.units);
    result.failed = checks.failed;

    // The slowest units, each with the command that re-runs it alone.
    std::vector<const FinishedUnit*> slowest;
    for (const FinishedUnit& u : tally.units) slowest.push_back(&u);
    const std::size_t shown = std::min<std::size_t>(5, slowest.size());
    std::partial_sort(slowest.begin(),
                      slowest.begin() + static_cast<std::ptrdiff_t>(shown),
                      slowest.end(),
                      [](const FinishedUnit* x, const FinishedUnit* y) {
                        return x->outcome.seconds > y->outcome.seconds;
                      });
    layers.slowest_unit_s = slowest.front()->outcome.seconds;
    std::cout << "# slowest units of " << tally.units.size() << " ("
              << shape.name << ", seed " << options.seed << "):\n";
    for (std::size_t i = 0; i < shown; ++i) {
      const FinishedUnit& u = *slowest[i];
      std::cout << "#   round=" << u.round << " point=" << u.outcome.point
                << " slot=" << u.outcome.slot
                << " U=" << shape.values[u.outcome.point]
                << " seconds=" << u.outcome.seconds << " nodes=" << u.nodes
                << "  replay: python3 perfbench/run.py --workload "
                << shape.name << " --seed " << options.seed << " --unit "
                << u.round << ":" << u.outcome.point << ":" << u.outcome.slot
                << "\n";
    }
    add_layer_metrics(result, layers);
    std::cerr << "# checks " << checks.seconds << " s\n";
  } else {
    const CheckTotals checks = check_units(shape, options, threads, tally.units);
    result.failed = checks.failed;
    std::vector<double> unit_seconds;
    double busy = 0.0;
    for (const FinishedUnit& u : tally.units) {
      unit_seconds.push_back(u.outcome.seconds);
      busy += u.outcome.seconds;
    }
    const double n = static_cast<double>(unit_seconds.size());
    result.metric("setup_s", median(setup_samples), "s");
    result.metric("peak_rss_mb", rss, "MB");
    result.metric("throughput_per_s", n / tally.timed_wall, "1/s");
    result.metric("busy_ms_per_op", 1e3 * busy / n, "ms");
    result.metric("fresh_p50_ms", 1e3 * percentile(unit_seconds, 0.5), "ms");
    result.metric("op_p99_ms", 1e3 * percentile(unit_seconds, 0.99), "ms");
    std::cerr << "# checks " << checks.seconds << " s\n";
  }
  // Every sweep failure is unexplained: no known fault shows on this sweep.
  result.attempted = tally.units.size();
  result.correct = result.failed == 0;
  std::cerr << "# " << shape.name << ": " << tally.rounds << " rounds, "
            << tally.units.size() << " units, timed wall " << tally.timed_wall
            << " s\n";
  std::cout << result.json() << std::endl;
  return 0;
}

}  // namespace perfbench
