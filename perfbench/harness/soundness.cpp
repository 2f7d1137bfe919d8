#include <sstream>

#include "bench.hpp"
#include "sim/job_source.hpp"
#include "support/rng.hpp"

namespace perfbench {

using mcs::rt::Time;

SoundnessReport check_releases(const mcs::rt::TaskSet& tasks,
                               mcs::sim::Protocol protocol,
                               const std::vector<Time>& bounds,
                               std::vector<mcs::sim::Release> releases) {
  const mcs::sim::Trace trace =
      mcs::sim::simulate(tasks, protocol, std::move(releases));
  std::ostringstream why;
  if (trace.aborted) {
    why << "simulation aborted";
  } else if (!trace.all_deadlines_met()) {
    why << trace.deadline_misses() << " deadline misses";
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Time worst = trace.worst_response(i);
      if (worst > bounds[i]) {
        why << "task " << tasks[i].name << " response " << worst
            << " > bound " << bounds[i];
        break;
      }
    }
  }
  SoundnessReport report;
  report.ok = why.str().empty();
  report.detail = why.str();
  return report;
}

SoundnessReport check_by_simulation(const mcs::rt::TaskSet& tasks,
                                    mcs::sim::Protocol protocol,
                                    const std::vector<Time>& bounds,
                                    std::uint64_t seed,
                                    std::size_t sporadic_patterns) {
  mcs::support::Rng rng(seed);
  const Time horizon = check_horizon(tasks);
  for (std::size_t pattern = 0; pattern <= sporadic_patterns; ++pattern) {
    SoundnessReport report = check_releases(
        tasks, protocol, bounds,
        pattern == 0
            ? mcs::sim::synchronous_periodic_releases(tasks, horizon)
            : mcs::sim::random_sporadic_releases(tasks, horizon, 0.5, rng));
    if (!report.ok) {
      report.detail = std::string(mcs::sim::to_string(protocol)) +
                      (pattern == 0 ? " synchronous: " : " sporadic: ") +
                      report.detail;
      return report;
    }
  }
  return {};
}

Time check_horizon(const mcs::rt::TaskSet& tasks) {
  // Three of the longest periods: every task has at least three jobs and
  // the lower-priority ones see interference from several higher ones.
  Time max_period = 0;
  for (const auto& task : tasks) max_period = std::max(max_period, task.period);
  return 3 * max_period;
}

}  // namespace perfbench
