#include "analysis/response_time.hpp"

#include <cmath>

#include "analysis/engine.hpp"
#include "support/contracts.hpp"

namespace mcs::analysis {

rt::Time delay_to_ticks(double delay) {
  MCS_REQUIRE(std::isfinite(delay) && delay >= 0.0,
              "delay_to_ticks: non-finite or negative delay bound");
  // Plain ceil: the only rounding that can never place the tick bound
  // *below* the double bound.  The previous `ceil(delay - 1e-6)` shaved a
  // whole tick off genuine bounds such as 5.0000005 — unsafe (DESIGN.md
  // §5.1 requires rounding up).  No downward "noise" adjustment is applied
  // either: when the solver reports k + epsilon we cannot prove the true
  // optimum is k, so the extra tick of pessimism is the price of safety.
  // Values that are exactly integral (the common case: all MILP data are
  // integer ticks) pass through ceil unchanged.
  return static_cast<rt::Time>(std::ceil(delay));
}

TaskBoundResult bound_response_time(const rt::TaskSet& tasks,
                                    rt::TaskIndex i,
                                    const AnalysisOptions& options) {
  // The fixpoint iteration lives in AnalysisEngine (engine.cpp), which
  // carries formulation caches across calls; a throwaway engine reproduces
  // the historical one-shot behavior exactly (within one call the engine's
  // per-(task, case) cache plays the role of the old local DelayMilpCache).
  AnalysisEngine engine;
  return engine.bound_response_time(tasks, i, options);
}

}  // namespace mcs::analysis
