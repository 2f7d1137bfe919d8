#include "lp/postsolve.hpp"

#include <cmath>

#include "support/contracts.hpp"

namespace mcs::lp::presolve {

std::size_t PostsolveMap::reduced_cols() const noexcept {
  std::size_t n = 0;
  for (const std::size_t c : col_map) {
    if (c != kRemoved) ++n;
  }
  return n;
}

std::size_t PostsolveMap::reduced_rows() const noexcept {
  std::size_t n = 0;
  for (const std::size_t r : row_map) {
    if (r != kRemoved) ++n;
  }
  return n;
}

std::vector<double> PostsolveMap::postsolve_primal(
    const std::vector<double>& reduced) const {
  MCS_REQUIRE(col_map.size() == original_cols,
              "postsolve_primal: map not initialized");
  std::vector<double> out(original_cols, 0.0);
  for (std::size_t c = 0; c < original_cols; ++c) {
    if (col_map[c] == kRemoved) {
      out[c] = fixed_value[c];
    } else {
      MCS_REQUIRE(col_map[c] < reduced.size(),
                  "postsolve_primal: reduced point too short");
      const double scale =
          col_scale.empty() ? 1.0 : col_scale[col_map[c]];
      out[c] = scale * reduced[col_map[c]];
    }
  }
  return out;
}

std::vector<int> PostsolveMap::restrict_priorities(
    const std::vector<int>& original) const {
  std::vector<int> reduced(reduced_cols(), 0);
  const std::size_t n = std::min(original.size(), col_map.size());
  for (std::size_t c = 0; c < n; ++c) {
    if (col_map[c] != kRemoved) {
      reduced[col_map[c]] = original[c];
    }
  }
  return reduced;
}

}  // namespace mcs::lp::presolve
