// Postsolve side of the presolve pipeline (presolve.hpp): the exact map
// from a reduced model's variable/row space back to the original model's.
//
// Presolve only ever *removes* columns (fixing them at a proven value) and
// rows (proven redundant, duplicate, or folded into a bound), tightens
// what survives, and optionally *rescales* it (geometric-mean
// equilibration); it never splits, merges, or reorders.  The map is
// therefore a monotone embedding — surviving columns/rows keep their
// original relative order — and postsolving a primal point is exact: the
// fixed coordinates are re-inserted at their recorded values, and scaled
// coordinates are multiplied back by their power-of-two column scale
// (exact in floating point), nothing is approximated.  Objective values need no translation at all (the reduced
// model's objective keeps the fixed columns' contribution as a constant),
// so dual bounds and incumbent objectives pass through unchanged and the
// independent primal+dual certificate of the simplex layer keeps working
// on the reduced model as-is.
#pragma once

#include <cstddef>
#include <vector>

namespace mcs::lp::presolve {

/// Sentinel for "this column/row does not exist in the reduced model".
inline constexpr std::size_t kRemoved = static_cast<std::size_t>(-1);

/// Exact original <-> reduced mapping recorded while presolving.
struct PostsolveMap {
  std::size_t original_cols = 0;
  std::size_t original_rows = 0;
  /// original column -> reduced column, or kRemoved when fixed.
  std::vector<std::size_t> col_map;
  /// Proven value of each fixed column (meaningful iff col_map == kRemoved).
  std::vector<double> fixed_value;
  /// original row -> reduced row, or kRemoved when eliminated.
  std::vector<std::size_t> row_map;
  /// Equilibration scales, indexed by *reduced* row/column.  Empty means
  /// all ones (equilibration off or a no-op).  Reduced row i holds
  /// row_scale[i] * (original coefficients and rhs); reduced column j
  /// holds x_original / col_scale[j] — so original = col_scale * reduced.
  /// Always powers of two, so both directions are exact.
  std::vector<double> row_scale;
  std::vector<double> col_scale;

  std::size_t reduced_cols() const noexcept;
  std::size_t reduced_rows() const noexcept;

  /// Maps a reduced-space primal point back to original variable space by
  /// re-inserting every fixed column at its recorded value.  Exact.
  std::vector<double> postsolve_primal(
      const std::vector<double>& reduced) const;

  /// Restricts per-column data (branch priorities) to the reduced space.
  std::vector<int> restrict_priorities(const std::vector<int>& original) const;
};

}  // namespace mcs::lp::presolve
