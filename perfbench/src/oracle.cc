#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

bool DominatesComplete(const double* a, const double* b, int dims) {
  bool strictly = false;
  for (int j = 0; j < dims; ++j) {
    if (a[j] > b[j]) return false;
    strictly |= a[j] < b[j];
  }
  return strictly;
}

bool DominatesIncomplete(const double* a, const double* b, int dims) {
  bool strictly = false;
  for (int j = 0; j < dims; ++j) {
    if (std::isnan(a[j]) || std::isnan(b[j])) continue;
    if (a[j] > b[j]) return false;
    strictly |= a[j] < b[j];
  }
  return strictly;
}

/// Candidate order by mean known key: strong dominators come first, so
/// dominated rows are found after a short scan.
std::vector<size_t> ByMeanKey(const SkylineInput& in) {
  std::vector<double> score(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    double sum = 0;
    int known = 0;
    for (int j = 0; j < in.dims; ++j) {
      const double v = in.key(i)[j];
      if (std::isnan(v)) continue;
      sum += v;
      ++known;
    }
    score[i] = known == 0 ? 1e300 : sum / known;
  }
  std::vector<size_t> order(in.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return score[a] < score[b]; });
  return order;
}

}  // namespace

void SkylineInput::Add(size_t row, const double* key_values) {
  rows.push_back(row);
  keys.insert(keys.end(), key_values, key_values + dims);
}

SkylineInput SelectInput(const GenTable& t, const std::vector<Dim>& dims,
                         const std::function<bool(const double*)>& keep,
                         size_t limit_rows) {
  SkylineInput in;
  in.dims = static_cast<int>(dims.size());
  std::vector<double> key(dims.size());
  const size_t n = std::min(limit_rows, t.num_rows());
  for (size_t i = 0; i < n; ++i) {
    const double* r = t.row(i);
    if (keep && !keep(r)) continue;
    for (size_t j = 0; j < dims.size(); ++j) {
      key[j] = dims[j].max ? -r[dims[j].col] : r[dims[j].col];
    }
    in.Add(i, key.data());
  }
  return in;
}

std::vector<size_t> SkylineComplete(const SkylineInput& in) {
  // Window of current survivors; a newcomer evicts those it dominates, so
  // the result is exact whatever the scan order (the order only makes it
  // fast).
  std::vector<size_t> window;
  for (size_t i : ByMeanKey(in)) {
    bool dominated = false;
    for (size_t w : window) {
      if (DominatesComplete(in.key(w), in.key(i), in.dims)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    window.erase(std::remove_if(window.begin(), window.end(),
                                [&](size_t w) {
                                  return DominatesComplete(
                                      in.key(i), in.key(w), in.dims);
                                }),
                 window.end());
    window.push_back(i);
  }
  std::sort(window.begin(), window.end());
  return window;
}

std::vector<size_t> SkylineIncomplete(const SkylineInput& in) {
  const std::vector<size_t> order = ByMeanKey(in);
  std::vector<size_t> out;
  for (size_t i = 0; i < in.size(); ++i) {
    bool dominated = false;
    for (size_t q : order) {
      if (q != i && DominatesIncomplete(in.key(q), in.key(i), in.dims)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(i);
  }
  return out;
}

}  // namespace perfbench
