#include "data.h"

#include <cmath>

namespace perfbench {

void PrefPoint(Rng* rng, Dist dist, int dims, double* out) {
  switch (dist) {
    case Dist::kIndependent:
      for (int j = 0; j < dims; ++j) out[j] = rng->Uniform();
      return;
    case Dist::kCorrelated: {
      // Close to the diagonal: good in one dimension, good in all.
      for (;;) {
        const double v = rng->Uniform();
        bool inside = true;
        for (int j = 0; j < dims; ++j) {
          out[j] = v + 0.05 * rng->Normal();
          inside &= out[j] >= 0 && out[j] <= 1;
        }
        if (inside) return;
      }
    }
    case Dist::kAntiCorrelated: {
      // Close to the plane sum(x) = dims * v with v near 0.5: good in one
      // dimension, bad in another.
      for (;;) {
        const double v = 0.5 + 0.025 * rng->Normal();
        double mean = 0;
        for (int j = 0; j < dims; ++j) {
          out[j] = rng->Uniform() - 0.5;
          mean += out[j];
        }
        mean /= dims;
        bool inside = true;
        for (int j = 0; j < dims; ++j) {
          out[j] = v + (out[j] - mean);
          inside &= out[j] >= 0 && out[j] <= 1;
        }
        if (inside) return;
      }
    }
  }
}

GenTable GenPoints(const std::string& name, size_t n, int dims, Dist dist,
                   uint64_t seed, const PointsShape& shape) {
  GenTable t;
  t.name = name;
  t.columns.push_back("id");
  t.is_int.push_back(true);
  for (int j = 0; j < dims; ++j) {
    t.columns.push_back("d" + std::to_string(j));
    t.is_int.push_back(false);
  }
  for (size_t j = 0; j < shape.key_ranges.size(); ++j) {
    t.columns.push_back("k" + std::to_string(j));
    t.is_int.push_back(true);
  }
  t.nullable = shape.null_share > 0;
  t.cells.reserve(n * t.width());
  Rng rng(seed);
  std::vector<double> pref(static_cast<size_t>(dims));
  for (size_t i = 0; i < n; ++i) {
    t.cells.push_back(static_cast<double>(i));
    PrefPoint(&rng, dist, dims, pref.data());
    for (int j = 0; j < dims; ++j) {
      double v = 100.0 * (GoalIsMax(j) ? 1.0 - pref[j] : pref[j]);
      if (shape.grid > 0) {
        v = std::round(v * shape.grid / 100.0) * (100.0 / shape.grid);
      }
      if (rng.Uniform() < shape.null_share) v = std::nan("");
      t.cells.push_back(v);
    }
    for (int range : shape.key_ranges) {
      t.cells.push_back(
          static_cast<double>(rng.Below(static_cast<uint64_t>(range))));
    }
  }
  return t;
}

std::vector<sparkline::Row> ToRows(const GenTable& t, size_t begin,
                                   size_t end) {
  using sparkline::DataType;
  using sparkline::Value;
  std::vector<sparkline::Row> rows;
  rows.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const double* r = t.row(i);
    sparkline::Row row;
    row.reserve(t.width());
    for (size_t c = 0; c < t.width(); ++c) {
      if (std::isnan(r[c])) {
        row.push_back(Value::Null(t.is_int[c] ? DataType::Int64()
                                              : DataType::Double()));
      } else if (t.is_int[c]) {
        row.push_back(Value::Int64(static_cast<int64_t>(r[c])));
      } else {
        row.push_back(Value::Double(r[c]));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

sparkline::TablePtr ToTable(const GenTable& t) {
  using sparkline::DataType;
  sparkline::Schema schema;
  for (size_t c = 0; c < t.width(); ++c) {
    schema.AddField(sparkline::Field{
        t.columns[c], t.is_int[c] ? DataType::Int64() : DataType::Double(),
        c > 0 && t.nullable});
  }
  auto table = std::make_shared<sparkline::Table>(t.name, std::move(schema));
  table->Reserve(t.num_rows());
  for (auto& row : ToRows(t, 0, t.num_rows())) {
    table->AppendRowUnchecked(std::move(row));
  }
  return table;
}

}  // namespace perfbench
