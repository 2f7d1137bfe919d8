#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <iomanip>
#include <sstream>

#include <sys/resource.h>

#include "bench.hpp"
#include "support/telemetry.hpp"
#include "svc/json.hpp"

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::add(const char* name, double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_[name] += seconds;
}

std::map<std::string, double> Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

namespace {

double rusage_cpu_seconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

double cpu_seconds() { return rusage_cpu_seconds(RUSAGE_SELF); }

double children_cpu_seconds() { return rusage_cpu_seconds(RUSAGE_CHILDREN); }

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!tracer().on()) return;
  name_ = name;
  start_ = now_seconds();
}

ScopedSpan::~ScopedSpan() {
  if (name_ != nullptr) tracer().add(name_, now_seconds() - start_);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

std::string Result::json() const {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    out << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << v
        << ", \"unit\": \"" << vu.second << "\"}";
  }
  out << "}}";
  return out.str();
}

namespace {

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_layer_metrics(Result& r, const LayerNumbers& n) {
  const auto& c = n.counters;
  const double nodes = get(c, "milp.nodes_explored");
  const double pivots = get(c, "milp.lp_iterations");
  const double warm_hits = get(c, "milp.warm_start_hits");
  const double reuses = get(c, "lp.presolve.session_reuses");
  const double hits = get(c, "svc.cache.hits");
  const double misses = get(c, "svc.cache.misses");
  const double handle = get(n.histogram_sums, "svc.request_seconds");
  const bool service = get(c, "svc.requests") > 0.0;
  r.metric("exp.worker_idle_s", n.worker_idle_s, "s");
  r.metric("exp.slowest_unit_s", n.slowest_unit_s, "s");
  r.metric("gen.generate_s", get(n.spans, "gen.generate"), "s");
  r.metric("analysis.nps_s", get(n.spans, "analysis.nps"), "s");
  r.metric("analysis.wp_s", get(n.spans, "analysis.wp"), "s");
  r.metric("analysis.greedy_s", get(n.spans, "analysis.greedy"), "s");
  r.metric("analysis.fixpoint_rounds", get(c, "analysis.fixpoint_rounds"),
           "count");
  r.metric("analysis.milp_builds", get(c, "analysis.milp_builds"), "count");
  r.metric("analysis.formulation_patches",
           get(c, "analysis.engine.formulation_patches"), "count");
  r.metric("analysis.ls_delta_patches",
           get(c, "analysis.engine.ls_delta_patches"), "count");
  r.metric("lp.milp_solve_s", get(n.timers, "milp.solve"), "s");
  r.metric("lp.nodes_explored", nodes, "count");
  r.metric("lp.nodes_per_solve", ratio(nodes, get(c, "milp.solves")),
           "ratio");
  r.metric("lp.pivots", pivots, "count");
  r.metric("lp.pivots_per_node", ratio(pivots, nodes), "ratio");
  r.metric("lp.refactorizations", get(c, "simplex.refactorizations"),
           "count");
  r.metric("lp.warm_start_hit_ratio",
           ratio(warm_hits, warm_hits + get(c, "milp.warm_start_fallbacks")),
           "ratio");
  r.metric("lp.gap_terminations", get(c, "milp.gap_terminations"), "count");
  r.metric("lp.node_limit_hits", get(c, "milp.node_limit_hits"), "count");
  r.metric("lp.presolve_s", get(n.timers, "lp.presolve.run"), "s");
  r.metric("lp.presolve_session_reuse_ratio",
           ratio(reuses, reuses + get(c, "lp.presolve.session_rebuilds")),
           "ratio");
  r.metric("lp.root_lp_s", n.root_lp_s, "s");
  r.metric("svc.handle_s", handle, "s");
  r.metric("svc.self_s",
           service ? handle - get(n.timers, "analysis.bound_response_time")
                   : 0.0,
           "s");
  r.metric("svc.wait_mean_ms", n.svc_wait_mean_ms, "ms");
  r.metric("svc.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  r.metric("svc.cache_evictions", get(c, "svc.cache.evictions"), "count");
  r.metric("svc.fresh_share", ratio(misses, get(c, "svc.requests")), "ratio");
  r.metric("trace_overhead_ratio", n.trace_overhead_ratio, "ratio");
}

void load_telemetry_json(const std::string& text, LayerNumbers& n) {
  const mcs::svc::Json doc = mcs::svc::parse_json(text);
  if (const auto* counters = doc.find("counters")) {
    for (const auto& [k, v] : counters->as_object()) n.counters[k] += v.as_number();
  }
  if (const auto* timers = doc.find("timers")) {
    for (const auto& [k, v] : timers->as_object()) {
      n.timers[k] += v.find("total_seconds")->as_number();
    }
  }
  if (const auto* hists = doc.find("histograms")) {
    for (const auto& [k, v] : hists->as_object()) {
      n.histogram_sums[k] += v.find("sum")->as_number();
    }
  }
}

void load_telemetry_snapshot(LayerNumbers& n) {
  std::ostringstream out;
  mcs::support::telemetry::write_json(mcs::support::telemetry::snapshot(), out);
  load_telemetry_json(out.str(), n);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double peak_rss_mb_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
