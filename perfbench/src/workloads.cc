// The three workloads: their tables, query mixes, rounds and the
// benchmark's own answers.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "oracle.h"
#include "workload.h"

namespace perfbench {

namespace {

void Require(const sparkline::Status& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.ToString());
}

std::unique_ptr<sparkline::Session> NewSession(
    const std::vector<std::pair<std::string, std::string>>& conf) {
  auto session = std::make_unique<sparkline::Session>();
  for (const auto& [key, value] : conf) {
    Require(session->SetConf(key, value), "SetConf " + key);
  }
  return session;
}

std::string DimName(int j) { return "d" + std::to_string(j); }

Op ReadOp(int query, int expect) {
  Op op;
  op.query = query;
  op.expect = expect;
  return op;
}

Op WriteOp(const std::string& table, std::vector<sparkline::Row> rows) {
  Op op;
  op.table = table;
  op.rows = std::move(rows);
  return op;
}

/// Appends `reads` (query indices, expect key = query index) to `round`,
/// with one write of `batch` rows of `ingest` after every `every` reads.
/// The writes append rows base_rows.. of `ingest` in order.
void Interleave(const std::vector<int>& reads, int every, const GenTable& ingest,
                size_t base_rows, size_t batch, std::vector<Op>* round) {
  size_t next = base_rows;
  for (size_t i = 0; i < reads.size(); ++i) {
    round->push_back(ReadOp(reads[i], reads[i]));
    if ((i + 1) % static_cast<size_t>(every) == 0) {
      round->push_back(WriteOp(ingest.name, ToRows(ingest, next, next + batch)));
      next += batch;
    }
  }
  if (next > ingest.num_rows()) throw std::logic_error("ingest table too small");
}

/// Registers the first `base_rows` of `ingest` under its name, replacing
/// what a round appended.
std::function<void()> ResetTo(sparkline::Session* session,
                              const GenTable& ingest, size_t base_rows) {
  GenTable base = ingest;
  base.cells.resize(base_rows * base.width());
  sparkline::TablePtr table = ToTable(base);
  return [session, table]() {
    session->catalog()->RegisterOrReplaceTable(table);
    session->catalog()->DrainWrites();
  };
}

}  // namespace

Query SkylineQuery(const SkylineSpec& spec) {
  Query q;
  std::string cols = "id";
  std::string dims;
  for (size_t i = 0; i < spec.dims.size(); ++i) {
    const int j = spec.dims[i];
    cols += ", " + DimName(j);
    dims += (i == 0 ? "" : ", ") + DimName(j) + (GoalIsMax(j) ? " MAX" : " MIN");
  }
  q.sql = "SELECT " + cols + " FROM " + spec.table->name +
          (spec.where.empty() ? "" : " WHERE " + spec.where) + " SKYLINE OF " +
          (spec.distinct ? "DISTINCT " : "") +
          (spec.complete ? "COMPLETE " : "") + dims;
  if (spec.distinct) {
    for (size_t i = 0; i < spec.dims.size(); ++i) {
      q.item_cols.push_back(static_cast<int>(i) + 1);
    }
  } else {
    q.item_cols = {0};
  }
  return q;
}

std::vector<uint64_t> SkylineItems(const SkylineSpec& spec,
                                   size_t limit_rows) {
  std::vector<Dim> dims;
  for (int j : spec.dims) dims.push_back(Dim{1 + j, GoalIsMax(j)});
  const SkylineInput in = SelectInput(*spec.table, dims, spec.keep, limit_rows);
  const bool incomplete = spec.table->nullable && !spec.complete;
  std::vector<uint64_t> items;
  for (size_t pos : incomplete ? SkylineIncomplete(in) : SkylineComplete(in)) {
    const double* row = spec.table->row(in.rows[pos]);
    std::vector<double> values;
    if (spec.distinct) {
      for (const Dim& d : dims) values.push_back(row[d.col]);
    } else {
      values.push_back(row[0]);
    }
    items.push_back(ValuesItem(values));
  }
  if (spec.distinct) {
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
  }
  return items;
}

// --- skyline_olap -------------------------------------------------------------
//
// The paper's use: cold analytical skylines over large tables, cache off.
// Five fact tables cover the distributions (independent, correlated,
// anti-correlated), incomplete data, and duplicates for DISTINCT; a small
// dimension table feeds the join query. Each round runs 21 reads and
// appends five 64-row batches to a 50k-row ingest table no query reads, so
// write latency is measured without changing any answer.

Workload BuildSkylineOlap(uint64_t seed) {
  struct State {
    GenTable ind, cor, anti, nulls, grid, dim, ingest;
    std::vector<SkylineSpec> specs;
  };
  auto st = std::make_shared<State>();
  PointsShape keyed;
  keyed.key_ranges = {1000};
  st->ind = GenPoints("o_ind", 200000, 6, Dist::kIndependent, Mix(seed, 1), keyed);
  st->cor = GenPoints("o_cor", 200000, 6, Dist::kCorrelated, Mix(seed, 2));
  st->anti = GenPoints("o_anti", 50000, 4, Dist::kAntiCorrelated, Mix(seed, 3));
  PointsShape holes;
  holes.null_share = 0.2;
  st->nulls = GenPoints("o_null", 20000, 4, Dist::kIndependent, Mix(seed, 4), holes);
  PointsShape coarse;
  coarse.grid = 50;
  st->grid = GenPoints("o_grid", 100000, 4, Dist::kAntiCorrelated, Mix(seed, 5), coarse);
  st->dim = GenPoints("o_dim", 1000, 2, Dist::kIndependent, Mix(seed, 6));
  constexpr size_t kIngestBase = 50000, kBatch = 64, kWrites = 5;
  st->ingest = GenPoints("o_ingest", kIngestBase + kWrites * kBatch, 4,
                         Dist::kIndependent, Mix(seed, 7));

  Workload w;
  w.session = NewSession({{"sparkline.executors", "4"}});
  for (const GenTable* t : {&st->ind, &st->cor, &st->anti, &st->nulls,
                            &st->grid, &st->dim}) {
    Require(w.session->catalog()->RegisterTable(ToTable(*t)), t->name);
  }

  auto spec = [&](const GenTable& t, std::vector<int> dims) {
    SkylineSpec s;
    s.table = &t;
    s.dims = std::move(dims);
    return s;
  };
  auto where = [](SkylineSpec s, std::string sql,
                  std::function<bool(const double*)> keep) {
    s.where = std::move(sql);
    s.keep = std::move(keep);
    return s;
  };
  auto distinct = [](SkylineSpec s) {
    s.distinct = true;
    return s;
  };
  std::vector<SkylineSpec>& specs = st->specs;
  specs.push_back(spec(st->ind, {0, 1}));
  specs.push_back(spec(st->ind, {0, 1, 2}));
  specs.push_back(spec(st->ind, {1, 2, 3, 4}));
  specs.push_back(spec(st->ind, {3, 4, 5}));
  specs.push_back(where(spec(st->ind, {0, 1, 2}), "d5 < 50",
                        [](const double* r) { return r[6] < 50; }));
  specs.push_back(spec(st->cor, {0, 1, 2, 3, 4, 5}));
  specs.push_back(spec(st->cor, {0, 1, 2, 3}));
  specs.push_back(spec(st->cor, {2, 3}));
  specs.push_back(where(spec(st->cor, {0, 1, 2}), "d3 > 50",
                        [](const double* r) { return r[4] > 50; }));
  specs.push_back(spec(st->anti, {0, 1}));
  specs.push_back(spec(st->anti, {0, 1, 2}));
  specs.push_back(where(spec(st->anti, {1, 2, 3}), "d0 < 60",
                        [](const double* r) { return r[1] < 60; }));
  specs.push_back(spec(st->nulls, {0, 1, 2}));
  specs.push_back(spec(st->nulls, {0, 1, 2, 3}));
  specs.push_back(where(spec(st->nulls, {0, 1, 2}), "d3 < 50",
                        [](const double* r) { return r[4] < 50; }));
  SkylineSpec complete = where(
      spec(st->nulls, {0, 1}), "d0 IS NOT NULL AND d1 IS NOT NULL",
      [](const double* r) { return !std::isnan(r[1]) && !std::isnan(r[2]); });
  complete.complete = true;
  specs.push_back(complete);
  specs.push_back(distinct(spec(st->grid, {0, 1, 2})));
  specs.push_back(distinct(spec(st->grid, {0, 1})));
  specs.push_back(spec(st->grid, {0, 1, 2}));
  for (const SkylineSpec& s : specs) w.queries.push_back(SkylineQuery(s));

  // The skyline of a join, ordered and cut: each o_ind row joins the o_dim
  // row its k0 names (o_dim ids are 0..999, row i has id i).
  const int join_query = static_cast<int>(w.queries.size());
  Query join;
  join.sql =
      "SELECT f.id AS id, f.d0 AS a, f.d1 AS b, m.d0 AS c FROM o_ind f "
      "JOIN o_dim m ON f.k0 = m.id SKYLINE OF a MIN, b MAX, c MIN "
      "ORDER BY a, id LIMIT 20";
  join.ordered = true;
  join.item_cols = {0};
  w.queries.push_back(join);

  // 21 reads: the 19 single-table skylines once and the join twice. The
  // odd count puts the median inside one query's band of samples, and the
  // join's ~10% share puts the p95 near the middle of its band rather than
  // on the edge between two queries.
  std::vector<int> reads;
  for (int i = 0; i < join_query; ++i) reads.push_back(i);
  reads.insert(reads.begin() + join_query / 2, join_query);
  reads.push_back(join_query);
  Interleave(reads, 4, st->ingest, kIngestBase, kBatch, &w.round);
  w.reset = ResetTo(w.session.get(), st->ingest, kIngestBase);

  w.expected = [st, join_query](int expect) -> std::vector<uint64_t> {
    if (expect != join_query) {
      return SkylineItems(st->specs[static_cast<size_t>(expect)]);
    }
    const GenTable& f = st->ind;
    SkylineInput in;
    in.dims = 3;
    for (size_t i = 0; i < f.num_rows(); ++i) {
      const double* r = f.row(i);
      const double key[3] = {r[1], -r[2], st->dim.row(static_cast<size_t>(r[7]))[1]};
      in.Add(i, key);
    }
    std::vector<size_t> sky = SkylineComplete(in);
    std::vector<std::pair<double, double>> ordered;  // (d0, id)
    for (size_t pos : sky) {
      const double* r = f.row(in.rows[pos]);
      ordered.emplace_back(r[1], r[0]);
    }
    std::sort(ordered.begin(), ordered.end());
    std::vector<uint64_t> items;
    for (size_t i = 0; i < ordered.size() && i < 20; ++i) {
      items.push_back(ValuesItem({ordered[i].second}));
    }
    return items;
  };
  return w;
}

// --- small_sql ----------------------------------------------------------------
//
// Short queries over small tables, cache off: the kernels do little, so
// per-query fixed costs (front end, executor pool, stage driving) dominate.
// Each round runs the eleven queries once and appends two 8-row batches to
// a 1000-row ingest table no query reads.

Workload BuildSmallSql(uint64_t seed) {
  struct State {
    GenTable items, groups, tiny, ingest;
  };
  auto st = std::make_shared<State>();
  // s_items: id, d0, d1, d2, k0 = group in [0, 20), k1 = quantity in [0, 1000).
  PointsShape keyed;
  keyed.key_ranges = {20, 1000};
  st->items = GenPoints("s_items", 2000, 3, Dist::kIndependent, Mix(seed, 11), keyed);
  st->groups = GenPoints("s_groups", 20, 1, Dist::kIndependent, Mix(seed, 12));
  st->tiny = GenPoints("s_tiny", 300, 2, Dist::kAntiCorrelated, Mix(seed, 13));
  constexpr size_t kIngestBase = 1000, kBatch = 8, kWrites = 2;
  st->ingest = GenPoints("s_ingest", kIngestBase + kWrites * kBatch, 3,
                         Dist::kIndependent, Mix(seed, 14));

  Workload w;
  w.session = NewSession({{"sparkline.executors", "4"}});
  for (const GenTable* t : {&st->items, &st->groups, &st->tiny}) {
    Require(w.session->catalog()->RegisterTable(ToTable(*t)), t->name);
  }

  // Columns of s_items rows in the benchmark's copy.
  enum { kId = 0, kD0 = 1, kD1 = 2, kD2 = 3, kGroup = 4, kQty = 5 };
  auto query = [&](std::string sql, bool ordered, std::vector<int> cols) {
    Query q;
    q.sql = std::move(sql);
    q.ordered = ordered;
    q.item_cols = std::move(cols);
    w.queries.push_back(q);
  };
  query("SELECT id, d0, d1 FROM s_items WHERE d0 < 30 ORDER BY d1 DESC, id "
        "LIMIT 10",
        true, {0});
  query("SELECT k0, COUNT(*) AS n, SUM(k1) AS s FROM s_items GROUP BY k0",
        false, {0, 1, 2});
  query("SELECT i.id, g.d0 FROM s_items i JOIN s_groups g ON i.k0 = g.id "
        "WHERE i.d1 > 90",
        false, {0, 1});
  query("SELECT id, d0, d1, d2 FROM s_items SKYLINE OF d0 MIN, d1 MAX, d2 MIN",
        false, {0});
  query("SELECT id, d0, d1 FROM s_tiny SKYLINE OF d0 MIN, d1 MAX", false, {0});
  query("SELECT id, k1 FROM s_items WHERE k0 = 3 AND k1 > 500 ORDER BY k1, id "
        "LIMIT 5",
        true, {0});
  query("SELECT k0, MAX(d0) AS m FROM s_items WHERE d1 < 50 GROUP BY k0 "
        "ORDER BY k0",
        true, {0, 1});
  query("SELECT id, d0, d1 FROM s_items WHERE k0 < 5 SKYLINE OF d0 MIN, "
        "d1 MAX ORDER BY d0, id LIMIT 3",
        true, {0});

  query("SELECT DISTINCT k0 FROM s_items WHERE d2 > 95 ORDER BY k0", true,
        {0});
  query("SELECT id, d0, d1, d2 FROM s_items SKYLINE OF DISTINCT d0 MIN, "
        "d1 MAX, d2 MIN ORDER BY d0 LIMIT 5",
        true, {1, 2, 3});
  query("SELECT i.id, i.d0, g.d0 FROM s_items i JOIN s_groups g "
        "ON i.k0 = g.id SKYLINE OF i.d0 MIN, g.d0 MAX",
        false, {0});

  // Eleven reads: the median falls inside one query's band of samples
  // rather than on the edge between two, and the p95 near the middle of
  // the band of the one clearly slower read (the join skyline).
  Interleave({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, st->ingest, kIngestBase,
             kBatch, &w.round);
  w.reset = ResetTo(w.session.get(), st->ingest, kIngestBase);

  w.expected = [st](int expect) -> std::vector<uint64_t> {
    const GenTable& t = st->items;
    std::vector<const double*> rows;
    for (size_t i = 0; i < t.num_rows(); ++i) rows.push_back(t.row(i));
    auto ids = [](const std::vector<const double*>& rs, size_t limit) {
      std::vector<uint64_t> out;
      for (size_t i = 0; i < rs.size() && i < limit; ++i) {
        out.push_back(ValuesItem({rs[i][kId]}));
      }
      return out;
    };
    auto filter = [&](auto keep) {
      std::vector<const double*> out;
      for (const double* r : rows) {
        if (keep(r)) out.push_back(r);
      }
      return out;
    };
    auto skyline_items = [](const GenTable& table, std::vector<int> dims,
                            std::function<bool(const double*)> keep) {
      SkylineSpec s;
      s.table = &table;
      s.dims = std::move(dims);
      s.keep = std::move(keep);
      return SkylineItems(s);
    };
    switch (expect) {
      case 0: {
        auto rs = filter([](const double* r) { return r[kD0] < 30; });
        std::sort(rs.begin(), rs.end(), [](const double* a, const double* b) {
          return a[kD1] != b[kD1] ? a[kD1] > b[kD1] : a[kId] < b[kId];
        });
        return ids(rs, 10);
      }
      case 1: {
        std::map<double, std::pair<double, double>> groups;  // count, sum
        for (const double* r : rows) {
          auto& [count, sum] = groups[r[kGroup]];
          count += 1;
          sum += r[kQty];
        }
        std::vector<uint64_t> out;
        for (const auto& [g, cs] : groups) {
          out.push_back(ValuesItem({g, cs.first, cs.second}));
        }
        return out;
      }
      case 2: {
        std::vector<uint64_t> out;
        for (const double* r : filter([](const double* r) { return r[kD1] > 90; })) {
          const double weight = st->groups.row(static_cast<size_t>(r[kGroup]))[1];
          out.push_back(ValuesItem({r[kId], weight}));
        }
        return out;
      }
      case 3:
        return skyline_items(t, {0, 1, 2}, nullptr);
      case 4:
        return skyline_items(st->tiny, {0, 1}, nullptr);
      case 5: {
        auto rs = filter(
            [](const double* r) { return r[kGroup] == 3 && r[kQty] > 500; });
        std::sort(rs.begin(), rs.end(), [](const double* a, const double* b) {
          return a[kQty] != b[kQty] ? a[kQty] < b[kQty] : a[kId] < b[kId];
        });
        return ids(rs, 5);
      }
      case 6: {
        std::map<double, double> best;
        for (const double* r : filter([](const double* r) { return r[kD1] < 50; })) {
          auto it = best.find(r[kGroup]);
          if (it == best.end() || r[kD0] > it->second) best[r[kGroup]] = r[kD0];
        }
        std::vector<uint64_t> out;
        for (const auto& [g, m] : best) out.push_back(ValuesItem({g, m}));
        return out;
      }
      case 7: {
        const SkylineInput in =
            SelectInput(t, {{kD0, false}, {kD1, true}},
                        [](const double* r) { return r[kGroup] < 5; });
        std::vector<const double*> sky;
        for (size_t pos : SkylineComplete(in)) sky.push_back(t.row(in.rows[pos]));
        std::sort(sky.begin(), sky.end(), [](const double* a, const double* b) {
          return a[kD0] != b[kD0] ? a[kD0] < b[kD0] : a[kId] < b[kId];
        });
        return ids(sky, 3);
      }
      case 8: {
        std::set<double> groups;
        for (const double* r : filter([](const double* r) { return r[kD2] > 95; })) {
          groups.insert(r[kGroup]);
        }
        std::vector<uint64_t> out;
        for (double g : groups) out.push_back(ValuesItem({g}));
        return out;
      }
      case 9: {
        const SkylineInput in =
            SelectInput(t, {{kD0, false}, {kD1, true}, {kD2, false}}, nullptr);
        std::vector<const double*> sky;
        for (size_t pos : SkylineComplete(in)) sky.push_back(t.row(in.rows[pos]));
        std::sort(sky.begin(), sky.end(), [](const double* a, const double* b) {
          return a[kD0] < b[kD0];
        });
        std::vector<uint64_t> out;
        for (size_t i = 0; i < sky.size() && i < 5; ++i) {
          out.push_back(ValuesItem({sky[i][kD0], sky[i][kD1], sky[i][kD2]}));
        }
        return out;
      }
      case 10: {
        SkylineInput in;
        in.dims = 2;
        for (size_t i = 0; i < t.num_rows(); ++i) {
          const double* r = t.row(i);
          const double key[2] = {
              r[kD0], -st->groups.row(static_cast<size_t>(r[kGroup]))[1]};
          in.Add(i, key);
        }
        std::vector<uint64_t> out;
        for (size_t pos : SkylineComplete(in)) {
          out.push_back(ValuesItem({t.row(in.rows[pos])[kId]}));
        }
        return out;
      }
    }
    throw std::logic_error("small_sql has no query " + std::to_string(expect));
  };
  return w;
}

// --- serve_mixed --------------------------------------------------------------
//
// Dashboard skylines served from the result cache while about one
// operation in ten inserts an 8-row batch into the queried table. A Zipf
// stream over a pool of 24 distinct queries makes about three reads in four
// hits and the first read of each pool query a miss. Every round restarts
// from the same 40k-row table (dropping the cache's entries for it) and
// replays the same reads and inserts, so the hit/miss sequence repeats
// exactly; the access pattern comes from a fixed stream, and --seed sets
// the data, the inserted rows and the query constants.

Workload BuildServeMixed(uint64_t seed) {
  constexpr size_t kBase = 40000, kBatch = 8, kPool = 24, kReads = 90;
  constexpr int kEvery = 9;  // one write after every 9 reads: 10 of 100 ops
  constexpr size_t kWrites = kReads / kEvery;
  struct State {
    GenTable hotels;  // base rows, then the rows the round inserts
    std::vector<SkylineSpec> specs;
    std::vector<int> writes_before;  // per expect key
  };
  auto st = std::make_shared<State>();
  // hotels: id, d0 = price (MIN), d1 = rating (MAX), d2 = distance (MIN),
  // k0 = city in [0, 20), k1 = stars - 1 in [0, 5).
  PointsShape keyed;
  keyed.key_ranges = {20, 5};
  st->hotels = GenPoints("hotels", kBase + kWrites * kBatch, 3,
                         Dist::kIndependent, Mix(seed, 21), keyed);

  Workload w;
  w.serve = true;
  w.session = NewSession({{"sparkline.cache.enabled", "true"}});

  // The pool: three dashboard families with distinct constants.
  Rng rng(Mix(seed, 22));
  std::set<std::string> seen;
  while (st->specs.size() < kPool) {
    SkylineSpec s;
    s.table = &st->hotels;
    const int family = static_cast<int>(st->specs.size() % 3);
    if (family == 0) {
      const double city = static_cast<double>(rng.Below(20));
      s.dims = {0, 1};
      s.where = "k0 = " + std::to_string(static_cast<int>(city));
      s.keep = [city](const double* r) { return r[4] == city; };
    } else if (family == 1) {
      const double city = static_cast<double>(rng.Below(20));
      const double stars = static_cast<double>(rng.Below(4));
      s.dims = {0, 1, 2};
      s.where = "k0 = " + std::to_string(static_cast<int>(city)) +
                " AND k1 >= " + std::to_string(static_cast<int>(stars));
      s.keep = [city, stars](const double* r) {
        return r[4] == city && r[5] >= stars;
      };
    } else {
      const double rating = 50 + 5 * static_cast<double>(rng.Below(10));
      s.dims = {0, 2};
      s.where = "d1 >= " + std::to_string(static_cast<int>(rating));
      s.keep = [rating](const double* r) { return r[2] >= rating; };
    }
    Query q = SkylineQuery(s);
    if (!seen.insert(q.sql).second) continue;
    w.queries.push_back(q);
    st->specs.push_back(s);
  }

  // Zipf(1.1) over the pool from a fixed stream: the same reads for every
  // seed. The expect key is (query, writes so far).
  Rng pattern(0x5EED5EEDull);
  std::vector<double> cdf(kPool);
  double total = 0;
  for (size_t k = 0; k < kPool; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    cdf[k] = total;
  }
  size_t next = kBase;
  for (size_t i = 0; i < kReads; ++i) {
    const double u = pattern.Uniform() * total;
    const int k = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                   cdf.begin());
    const int writes = static_cast<int>((next - kBase) / kBatch);
    w.round.push_back(ReadOp(k, k * 1000 + writes));
    if ((i + 1) % kEvery == 0) {
      w.round.push_back(
          WriteOp(st->hotels.name, ToRows(st->hotels, next, next + kBatch)));
      next += kBatch;
    }
  }
  w.reset = ResetTo(w.session.get(), st->hotels, kBase);
  w.expected = [st](int expect) {
    const size_t writes = static_cast<size_t>(expect % 1000);
    return SkylineItems(st->specs[static_cast<size_t>(expect / 1000)],
                        kBase + writes * kBatch);
  };
  return w;
}

}  // namespace perfbench
