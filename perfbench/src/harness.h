// What the three workloads share: running one read or write against the
// program and timing it, the traced pipeline that splits a read into
// layers, span recording, result items for the checks, and the report.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  int64_t start_nanos = 0;  ///< process start, for setup_s
};

/// One read of a workload's mix and how its answer is checked.
struct Query {
  std::string sql;
  /// The result order is part of the answer (ORDER BY ... LIMIT).
  bool ordered = false;
  /// Result columns that make up a row's identity in the comparison.
  std::vector<int> item_cols;
};

/// Identity of one result row: a hash over `cols`.
uint64_t RowItem(const sparkline::Row& row, const std::vector<int>& cols);
/// Identity of one expected row, computed from the benchmark's own values
/// (NaN is NULL), hashed exactly as RowItem hashes the program's values.
uint64_t ValuesItem(const std::vector<double>& values);
/// Digest of a result: the items of every row, sorted unless ordered.
uint64_t ResultDigest(const Query& q, const std::vector<sparkline::Row>& rows);

/// Per-layer wall times of one traced read, microseconds. Front-end and
/// serve parts are always set; execution parts only when the read executed
/// (a cache miss, or any read with the cache off).
struct LayerTimes {
  double parse = 0, analyze = 0, fingerprint = 0, lookup = 0, optimize = 0,
         plan = 0, context = 0, execute = 0, decode = 0, insert = 0;
  double Sum() const {
    return parse + analyze + fingerprint + lookup + optimize + plan +
           context + execute + decode + insert;
  }
};

/// Outcome of one read.
struct ReadResult {
  sparkline::Status status;
  double latency_us = 0;
  bool executed = false;  ///< false for a cache hit
  std::shared_ptr<const std::vector<sparkline::Row>> rows;
  sparkline::QueryMetrics metrics;
  LayerTimes layers;  ///< traced reads only
};

/// Spans of the traced run, kept in memory and written once at exit.
class SpanLog {
 public:
  /// Opens a span; `parent` is -1 for a read's root span.
  int Begin(const char* name, int parent, uint64_t query_id);
  /// Closes it and returns its duration in microseconds.
  double End(int span);
  size_t size() const { return spans_.size(); }
  /// One JSON object per line: name, start_ns, end_ns, parent, query.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    uint64_t query;
  };
  std::vector<Span> spans_;
};

/// The untraced client call with the cache off: Session::Sql + Collect.
ReadResult ReadCollect(sparkline::Session* session, const std::string& sql);
/// The untraced client call through the query service: SqlSubmit + wait.
ReadResult ReadSubmit(sparkline::Session* session, const std::string& sql);
/// The traced read: the pipeline Session::Execute runs, called stage by
/// stage through the public entry points (ParseSql, Analyze,
/// FingerprintPlan, ResultCache::Lookup, Optimize, PlanPhysical,
/// ExecContext, PhysicalPlan::Execute, root decode, ResultCache::Insert),
/// each under its own span. With `use_cache` the read probes and fills the
/// session's result cache exactly as Session::Execute does.
ReadResult ReadTraced(sparkline::Session* session, const std::string& sql,
                      bool use_cache, SpanLog* spans, uint64_t query_id);

/// Outcome of one write: InsertInto, then DrainWrites (listeners and cache
/// maintenance), timed separately.
struct WriteResult {
  sparkline::Status status;
  double insert_us = 0;
  double drain_us = 0;
  size_t table_rows = 0;  ///< rows before the insert
};
WriteResult Write(sparkline::Catalog* catalog, const std::string& table,
                  const std::vector<sparkline::Row>& rows);

/// Sums of per-layer quantities, reported as means per event.
class LayerSums {
 public:
  void Add(const std::string& name, double value) {
    auto& [sum, n] = sums_[name];
    sum += value;
    ++n;
  }
  double MeanOf(const std::string& name) const;

 private:
  std::map<std::string, std::pair<double, int64_t>> sums_;
};

/// Adds the engine's per-query layer figures (stage families, dominance
/// counts, shipping, tracked memory) of one executed read to `sums`.
void AddEngineLayers(const sparkline::QueryMetrics& m,
                     const sparkline::ClusterConfig& cluster, LayerSums* sums);

/// The counters of the program's metrics registry this benchmark reads.
struct RegistryCounters {
  int64_t cache_hits = 0, cache_misses = 0, maintained = 0, fallbacks = 0,
          queue_wait_count = 0, queue_wait_sum_us = 0;
  static RegistryCounters Read();
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< first few problems, to stderr
  void Fail(const std::string& what);
};

/// Samples every workload collects, and the end-to-end metrics derived
/// from them.
struct Samples {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> simulated_ms;  ///< executed reads only
  double measured_s = 0;
  double setup_s = 0;
  void AddEndToEnd(Report* report) const;
};

/// Per-layer metrics every traced run prints, in the order of
/// BENCHMARK.json; layers a workload does not exercise read 0.
void AddPerLayer(const LayerSums& sums, Report* report);

/// Peak resident set of this process, MiB.
double PeakRssMb();

std::string ReportJson(const Report& report);

}  // namespace perfbench
