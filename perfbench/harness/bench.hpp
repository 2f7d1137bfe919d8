// Shared pieces of the end-to-end benchmark harness: command-line options,
// the in-memory span tracer, the result printer and the soundness check
// that both sweep and service workloads run on schedulable verdicts.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "rt/task.hpp"
#include "sim/engine.hpp"
#include "sim/job_source.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string serve_binary;  ///< mcs_serve executable (serve workloads)
  /// Single-unit replay of a sweep unit: round/point/slot, or empty.
  std::string unit;
};

double now_seconds();
/// CPU time (user + system) of this process, all its threads.  setup_s is
/// measured in CPU time: the wall time of a few milliseconds of start-up
/// doubles when other processes load the host, its CPU time moves far less
/// (README, "setup_s").
double cpu_seconds();
/// CPU time (user + system) of the children this process has waited for.
double children_cpu_seconds();

/// Time spent in calls into each layer, summed per span name.  Recorded
/// from the benchmark's own code.
class Tracer {
 public:
  bool on() const noexcept { return on_; }
  void enable(bool on) noexcept { on_ = on; }
  void add(const char* name, double seconds);
  std::map<std::string, double> totals() const;

 private:
  bool on_ = false;
  mutable std::mutex mutex_;
  std::map<std::string, double> totals_;
};

Tracer& tracer();

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< null when the tracer was off
  double start_ = 0.0;
};

/// Metric name -> (value, unit), printed in insertion order.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The one JSON line the benchmark ends its output with.
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Inputs of the per-layer metrics.  Telemetry fields come from the
/// program's own snapshot (in-process for sweeps, mcs_serve --telemetry for
/// the service); the rest from the benchmark's spans and unit records.
struct LayerNumbers {
  std::map<std::string, double> spans;  ///< span name -> total seconds
  std::map<std::string, double> counters;
  std::map<std::string, double> timers;  ///< timer name -> total seconds
  std::map<std::string, double> histogram_sums;
  double worker_idle_s = 0.0;
  double slowest_unit_s = 0.0;
  double root_lp_s = 0.0;
  double svc_wait_mean_ms = 0.0;
  double trace_overhead_ratio = 0.0;
};

/// Every per-layer metric, in BENCHMARK.json order (0 where a workload
/// does not exercise the layer).
void add_layer_metrics(Result& result, const LayerNumbers& n);

/// Loads counters / timer totals / histogram sums from a telemetry snapshot
/// (schema mcs-telemetry-v1) into `n`.
void load_telemetry_json(const std::string& text, LayerNumbers& n);
void load_telemetry_snapshot(LayerNumbers& n);

double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double peak_rss_mb_self();

/// Outcome of simulating one analyzed task set.
struct SoundnessReport {
  bool ok = true;
  std::string detail;  ///< first violation, human-readable
};

/// Simulates `tasks` (LS flags as given) under `protocol` with the
/// synchronous periodic pattern and `sporadic_patterns` seeded sporadic
/// ones; every deadline must be met and no task's response may exceed
/// `bounds[i]`.
/// Simulates one release list; the same conditions as below.
SoundnessReport check_releases(const mcs::rt::TaskSet& tasks,
                               mcs::sim::Protocol protocol,
                               const std::vector<mcs::rt::Time>& bounds,
                               std::vector<mcs::sim::Release> releases);

/// Simulation horizon of the checks: three of the longest periods.
mcs::rt::Time check_horizon(const mcs::rt::TaskSet& tasks);

SoundnessReport check_by_simulation(const mcs::rt::TaskSet& tasks,
                                    mcs::sim::Protocol protocol,
                                    const std::vector<mcs::rt::Time>& bounds,
                                    std::uint64_t seed,
                                    std::size_t sporadic_patterns);

int run_sweep_workload(const Options& options);
int run_serve_workload(const Options& options);

}  // namespace perfbench
