// A workload is a session with generated tables, a fixed round of reads
// and writes, and the benchmark's own answer for every read. The runner
// repeats whole rounds, so every run attempts the same operations in the
// same proportions whatever its length.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data.h"
#include "harness.h"

namespace perfbench {

/// One operation of a round.
struct Op {
  /// Reads: index into Workload::queries, and the key of the expected
  /// answer (which differs between reads of one query when writes to the
  /// queried table come between them).
  int query = -1;
  int expect = -1;
  /// Writes (query < 0): rows appended to `table`.
  std::string table;
  std::vector<sparkline::Row> rows;
};

struct Workload {
  std::unique_ptr<sparkline::Session> session;
  std::vector<Query> queries;
  std::vector<Op> round;
  /// Reads go through the query service and its result cache (serve
  /// path); otherwise through Session::Sql + Collect with the cache off.
  bool serve = false;
  /// Restores the tables the round writes to; runs before every round,
  /// outside the measured time.
  std::function<void()> reset;
  /// The benchmark's own answer for an Op::expect key, as row items.
  std::function<std::vector<uint64_t>(int expect)> expected;
};

/// A single-table skyline read over a GenPoints table.
struct SkylineSpec {
  const GenTable* table = nullptr;
  /// Value columns by number: {0, 3} is "d0 MIN, d3 MAX" (GoalIsMax).
  std::vector<int> dims;
  bool distinct = false;
  /// The COMPLETE keyword: complete dominance even on a nullable table.
  bool complete = false;
  /// SQL predicate (empty for none) and the same predicate on own rows.
  std::string where;
  std::function<bool(const double*)> keep;
};

/// SELECT id, <dims> FROM t [WHERE ..] SKYLINE OF [DISTINCT] [COMPLETE] ..
Query SkylineQuery(const SkylineSpec& spec);
/// The expected items of that read over the first `limit_rows` rows: ids,
/// or for DISTINCT the distinct dimension tuples of the skyline.
std::vector<uint64_t> SkylineItems(const SkylineSpec& spec,
                                   size_t limit_rows = SIZE_MAX);

Workload BuildSkylineOlap(uint64_t seed);
Workload BuildSmallSql(uint64_t seed);
Workload BuildServeMixed(uint64_t seed);

/// Warm-up round, then whole rounds for `options.seconds`, then the checks.
/// Untraced runs report the end-to-end metrics; traced runs alternate
/// untraced and traced rounds and report the per-layer metrics.
Report RunWorkload(Workload* w, const Options& options);

}  // namespace perfbench
