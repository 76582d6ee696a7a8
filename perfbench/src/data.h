// Generated tables. Every table exists twice: as the benchmark's own copy
// (GenTable, plain doubles) that the correctness checks read, and as the
// program's input (sparkline::Table) built from it once at set-up.
#pragma once

#include <string>
#include <vector>

#include "catalog/table.h"
#include "util.h"

namespace perfbench {

enum class Dist { kIndependent, kCorrelated, kAntiCorrelated };

/// Row-major copy of a generated table. Column 0 is always `id`. Cells are
/// doubles; NaN stands for NULL. Integer columns hold whole numbers and
/// become BIGINT in the program's table.
struct GenTable {
  std::string name;
  std::vector<std::string> columns;
  std::vector<bool> is_int;
  /// Schema nullability of the non-id columns. A nullable skyline
  /// dimension sends the planner to the incomplete-data path.
  bool nullable = false;
  std::vector<double> cells;

  size_t width() const { return columns.size(); }
  size_t num_rows() const { return cells.size() / width(); }
  const double* row(size_t i) const { return cells.data() + i * width(); }
};

/// Skyline value columns alternate goals: even-numbered d0, d2, ... are
/// minimized, odd-numbered d1, d3, ... maximized. The generators draw each
/// point in preference space (lower is better) and store it oriented for
/// the column's goal, so a distribution keeps its meaning under MIN/MAX
/// mixes.
inline bool GoalIsMax(int value_index) { return value_index % 2 == 1; }

/// One preference-space point in [0, 1]^dims.
void PrefPoint(Rng* rng, Dist dist, int dims, double* out);

/// Shape of a GenPoints table beyond its size and distribution.
struct PointsShape {
  /// > 0 rounds values to multiples of 100/grid, so duplicates and ties
  /// occur.
  int grid = 0;
  /// Share of value cells left NULL (the table is then nullable).
  double null_share = 0;
  /// One BIGINT column k0, k1, ... per entry, uniform in [0, range).
  std::vector<int> key_ranges;
};

/// `n` rows of (id, d0..d{dims-1}, k0, ...): ids 0..n-1, values in
/// [0, 100] drawn from `dist`.
GenTable GenPoints(const std::string& name, size_t n, int dims, Dist dist,
                   uint64_t seed, const PointsShape& shape = {});

/// Rows [begin, end) of `t` in the program's row format.
std::vector<sparkline::Row> ToRows(const GenTable& t, size_t begin,
                                   size_t end);

/// The program's table for `t` (all rows).
sparkline::TablePtr ToTable(const GenTable& t);

}  // namespace perfbench
