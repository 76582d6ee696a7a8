// The benchmark's own skyline computation, used only to check the
// program's answers (outside the timed region).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "data.h"

namespace perfbench {

/// One skyline dimension: a column of a GenTable and its goal.
struct Dim {
  int col;
  bool max;
};

/// The input of one skyline in preference space (lower is better; NaN is
/// NULL): `dims` keys per candidate row, row-major, plus each candidate's
/// source row.
struct SkylineInput {
  int dims = 0;
  std::vector<double> keys;
  std::vector<size_t> rows;

  size_t size() const { return rows.size(); }
  const double* key(size_t i) const { return keys.data() + i * dims; }
  void Add(size_t row, const double* key_values);
};

/// Candidates of `t` passing `keep` (every row when empty), keyed on
/// `dims`. `limit_rows` restricts the input to the first rows of `t`.
SkylineInput SelectInput(const GenTable& t, const std::vector<Dim>& dims,
                         const std::function<bool(const double*)>& keep,
                         size_t limit_rows = SIZE_MAX);

/// Positions (into `in`) of the candidates no other candidate dominates,
/// under complete dominance: at least as good everywhere, strictly better
/// somewhere. Dominance is transitive here, so a sorted window suffices.
std::vector<size_t> SkylineComplete(const SkylineInput& in);

/// Same under incomplete-data dominance (compare only the dimensions both
/// rows have; no shared dimension means incomparable). Dominance is not
/// transitive there, so every survivor is checked against every candidate.
std::vector<size_t> SkylineIncomplete(const SkylineInput& in);

}  // namespace perfbench
