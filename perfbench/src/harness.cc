#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include "api/dataframe.h"
#include "common/metrics.h"
#include "serve/fingerprint.h"
#include "serve/incremental.h"
#include "sql/parser.h"

namespace perfbench {

using sparkline::QueryResult;
using sparkline::Result;
using sparkline::Row;
using sparkline::Status;

uint64_t RowItem(const Row& row, const std::vector<int>& cols) {
  uint64_t h = cols.size();
  for (int c : cols) {
    const sparkline::Value& v = row[static_cast<size_t>(c)];
    h = Mix(h, v.is_null() ? HashNumber(std::nan("")) : HashNumber(v.ToDouble()));
  }
  return h;
}

uint64_t ValuesItem(const std::vector<double>& values) {
  uint64_t h = values.size();
  for (double v : values) h = Mix(h, HashNumber(v));
  return h;
}

uint64_t ResultDigest(const Query& q, const std::vector<Row>& rows) {
  std::vector<uint64_t> items;
  items.reserve(rows.size());
  for (const Row& row : rows) items.push_back(RowItem(row, q.item_cols));
  return Digest(std::move(items), q.ordered);
}

int SpanLog::Begin(const char* name, int parent, uint64_t query_id) {
  spans_.push_back(Span{name, NowNanos(), 0, parent, query_id});
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::End(int span) {
  Span& s = spans_[static_cast<size_t>(span)];
  s.end_ns = NowNanos();
  return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"query\":" << s.query << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

void Finish(Result<QueryResult> res, int64_t start_nanos, ReadResult* r) {
  r->latency_us = MicrosSince(start_nanos);
  if (!res.ok()) {
    r->status = res.status();
    return;
  }
  r->rows = res->shared_rows();
  r->metrics = res->metrics;
  r->executed = !res->metrics.cache_hit;
}

}  // namespace

ReadResult ReadCollect(sparkline::Session* session, const std::string& sql) {
  ReadResult r;
  const int64_t start = NowNanos();
  Result<sparkline::DataFrame> df = session->Sql(sql);
  Finish(df.ok() ? df->Collect() : Result<QueryResult>(df.status()), start,
         &r);
  return r;
}

ReadResult ReadSubmit(sparkline::Session* session, const std::string& sql) {
  ReadResult r;
  const int64_t start = NowNanos();
  Result<sparkline::serve::QueryHandle> handle = session->SqlSubmit(sql);
  Finish(handle.ok() ? handle->future.get()
                     : Result<QueryResult>(handle.status()),
         start, &r);
  return r;
}

ReadResult ReadTraced(sparkline::Session* session, const std::string& sql,
                      bool use_cache, SpanLog* spans, uint64_t query_id) {
  using sparkline::LogicalPlanPtr;
  using sparkline::PhysicalPlanPtr;
  ReadResult r;
  LayerTimes& t = r.layers;
  const int64_t start = NowNanos();
  const int root = spans->Begin("read", -1, query_id);
  // Runs one layer under its own span; false (with r.status set) on error.
  auto layer = [&](const char* name, double* us, auto&& body) {
    const int span = spans->Begin(name, root, query_id);
    Status st = body();
    *us = spans->End(span);
    if (!st.ok()) r.status = st;
    return st.ok();
  };
  sparkline::serve::PlanFingerprint fp;
  auto done = [&]() {
    spans->End(root);
    r.latency_us = MicrosSince(start);
    // As in Session::Execute: nonzero exactly when the cache was probed.
    if (fp.cacheable) r.metrics.cache_lookup_ms = (t.fingerprint + t.lookup) / 1e3;
    return r;
  };

  LogicalPlanPtr parsed, analyzed, optimized;
  PhysicalPlanPtr physical;
  if (!layer("sql.parse", &t.parse, [&] {
        Result<LogicalPlanPtr> p = sparkline::ParseSql(sql);
        if (p.ok()) parsed = *p;
        return p.status();
      })) {
    return done();
  }
  if (!layer("analysis.analyze", &t.analyze, [&] {
        Result<LogicalPlanPtr> p = session->Analyze(parsed);
        if (p.ok()) analyzed = *p;
        return p.status();
      })) {
    return done();
  }

  if (use_cache) {
    layer("serve.fingerprint", &t.fingerprint, [&] {
      fp = sparkline::serve::FingerprintPlan(analyzed);
      return Status::OK();
    });
    if (fp.cacheable) {
      std::shared_ptr<const sparkline::serve::CachedResult> hit;
      layer("serve.cache_lookup", &t.lookup, [&] {
        hit = session->cache()->Lookup(fp);
        return Status::OK();
      });
      if (hit != nullptr) {
        r.rows = hit->rows;
        r.metrics.cache_hit = true;
        return done();
      }
    }
  }

  if (!layer("optimizer.optimize", &t.optimize, [&] {
        Result<LogicalPlanPtr> p = session->Optimize(analyzed);
        if (p.ok()) optimized = *p;
        return p.status();
      })) {
    return done();
  }
  if (!layer("exec.plan", &t.plan, [&] {
        Result<PhysicalPlanPtr> p = session->PlanPhysical(optimized);
        if (p.ok()) physical = *p;
        return p.status();
      })) {
    return done();
  }
  std::unique_ptr<sparkline::ExecContext> ctx;
  double create_us = 0;
  layer("exec.context.create", &create_us, [&] {
    ctx = std::make_unique<sparkline::ExecContext>(session->config().cluster);
    return Status::OK();
  });
  // The relation holds a charge on the context's memory tracker, so it
  // must be gone before the context is destroyed.
  std::optional<sparkline::PartitionedRelation> rel;
  std::vector<sparkline::Attribute> attrs;
  const bool ran = layer("exec.execute", &t.execute, [&] {
    Result<sparkline::PartitionedRelation> out = physical->Execute(ctx.get());
    if (out.ok()) rel.emplace(std::move(out).MoveValue());
    return out.status();
  });
  if (ran) {
    std::vector<Row> rows;
    attrs = rel->attrs;
    layer("exec.decode", &t.decode, [&] {
      rows = std::move(*rel).Flatten();
      rel.reset();
      return Status::OK();
    });
    r.metrics = ctx->Finish(t.execute / 1e3);
    r.rows = std::make_shared<const std::vector<Row>>(std::move(rows));
    r.executed = true;
  }
  double destroy_us = 0;
  layer("exec.context.destroy", &destroy_us, [&] {
    ctx.reset();
    return Status::OK();
  });
  t.context = create_us + destroy_us;
  if (!ran || !use_cache || !fp.cacheable) return done();

  layer("serve.cache_insert", &t.insert, [&] {
    auto entry = std::make_shared<sparkline::serve::CachedResult>();
    entry->rows = r.rows;
    entry->bytes = sparkline::EstimatedRowsBytes(*r.rows);
    entry->attrs = attrs;
    entry->fingerprint = fp;
    uint64_t snapshot_version = 0;
    entry->recipe =
        sparkline::serve::BuildDeltaRecipe(analyzed, &snapshot_version);
    entry->table_version = snapshot_version;
    return session->cache()->Insert(fp, std::move(entry));
  });
  return done();
}

WriteResult Write(sparkline::Catalog* catalog, const std::string& table,
                  const std::vector<Row>& rows) {
  WriteResult w;
  Result<sparkline::TablePtr> before = catalog->GetTable(table);
  if (before.ok()) w.table_rows = (*before)->num_rows();
  const int64_t start = NowNanos();
  w.status = catalog->InsertInto(table, rows);
  w.insert_us = MicrosSince(start);
  const int64_t drain = NowNanos();
  catalog->DrainWrites();
  w.drain_us = MicrosSince(drain);
  return w;
}

double LayerSums::MeanOf(const std::string& name) const {
  auto it = sums_.find(name);
  if (it == sums_.end() || it->second.second == 0) return 0;
  return it->second.first / static_cast<double>(it->second.second);
}

void AddEngineLayers(const sparkline::QueryMetrics& m,
                     const sparkline::ClusterConfig& cluster, LayerSums* sums) {
  // Stage labels map to families by their leading word ("LocalSkyline
  // [bnl]", "GlobalSkyline [complete] [merge]", "Exchange gather", ...).
  static const std::pair<const char*, const char*> kFamilies[] = {
      {"Scan", "exec.stage.scan_ms"},
      {"LocalSkyline", "exec.stage.local_skyline_ms"},
      {"BroadcastFilter", "exec.stage.broadcast_filter_ms"},
      {"Exchange", "exec.stage.exchange_ms"},
      {"GlobalSkyline", "exec.stage.global_skyline_ms"}};
  std::map<std::string, double> family_ms;
  for (const auto& kv : kFamilies) family_ms[kv.second] = 0;
  family_ms["exec.stage.other_ms"] = 0;
  for (const auto& [label, ms] : m.operator_ms) {
    const char* family = "exec.stage.other_ms";
    for (const auto& [prefix, name] : kFamilies) {
      if (label.compare(0, std::strlen(prefix), prefix) == 0) family = name;
    }
    family_ms[family] += ms;
  }
  for (const auto& [name, ms] : family_ms) sums->Add(name, ms);

  int64_t builds = 0;
  for (const auto& kv : m.matrix_builds) builds += kv.second;
  sums->Add("skyline.dominance_tests", static_cast<double>(m.dominance_tests));
  sums->Add("skyline.merge_dominance_tests",
            static_cast<double>(m.merge_dominance_tests));
  sums->Add("skyline.matrix_builds", static_cast<double>(builds));
  sums->Add("skyline.sfs_rows_skipped",
            static_cast<double>(m.sfs_rows_skipped));
  sums->Add("exec.rows_shipped", static_cast<double>(m.exchange_rows_shipped));
  sums->Add("exec.bytes_shipped", static_cast<double>(m.exchange_bytes));
  sums->Add("exec.partitions_skipped",
            static_cast<double>(m.partitions_skipped));
  sums->Add("exec.rows_pruned_pre_gather",
            static_cast<double>(m.rows_pruned_pre_gather));
  // peak_memory_bytes adds a fixed simulated footprint per executor; the
  // tracked part is what the query materialized.
  sums->Add("exec.tracked_peak_mb",
            static_cast<double>(m.peak_memory_bytes -
                                cluster.num_executors *
                                    cluster.executor_overhead_bytes) /
                (1 << 20));
}

RegistryCounters RegistryCounters::Read() {
  auto& reg = sparkline::metrics::MetricsRegistry::Global();
  RegistryCounters c;
  c.cache_hits = reg.GetCounter("sparkline_cache_hits_total")->value();
  c.cache_misses = reg.GetCounter("sparkline_cache_misses_total")->value();
  c.maintained =
      reg.GetCounter("sparkline_incremental_maintained_total")->value();
  for (const char* reason : {"oversized_batch", "no_recipe", "version_gap",
                             "classify_unsound", "apply_error"}) {
    c.fallbacks += reg.GetCounter("sparkline_incremental_fallbacks_total",
                                  {{"reason", reason}})
                       ->value();
  }
  auto* wait = reg.GetHistogram("sparkline_serve_queue_wait_us");
  c.queue_wait_count = wait->count();
  c.queue_wait_sum_us = wait->sum();
  return c;
}

void Report::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 10) errors.push_back(what);
}

void Samples::AddEndToEnd(Report* report) const {
  const double ops = static_cast<double>(read_ms.size() + write_ms.size());
  report->metrics.push_back({"setup_s", setup_s, "s"});
  report->metrics.push_back({"query_p50_ms", Quantile(read_ms, 0.5), "ms"});
  report->metrics.push_back({"query_p95_ms", Quantile(read_ms, 0.95), "ms"});
  report->metrics.push_back({"ops_per_s", ops / measured_s, "1/s"});
  report->metrics.push_back(
      {"simulated_p50_ms", Quantile(simulated_ms, 0.5), "ms"});
  report->metrics.push_back({"write_p50_ms", Quantile(write_ms, 0.5), "ms"});
  report->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
}

void AddPerLayer(const LayerSums& sums, Report* report) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"sql.parse_us", "us"},
      {"analysis.analyze_us", "us"},
      {"optimizer.optimize_us", "us"},
      {"exec.plan_us", "us"},
      {"exec.context_us", "us"},
      {"exec.driver_us", "us"},
      {"exec.decode_us", "us"},
      {"api.unattributed_us", "us"},
      {"exec.execute_ms", "ms"},
      {"exec.stage.scan_ms", "ms"},
      {"exec.stage.local_skyline_ms", "ms"},
      {"exec.stage.broadcast_filter_ms", "ms"},
      {"exec.stage.exchange_ms", "ms"},
      {"exec.stage.global_skyline_ms", "ms"},
      {"exec.stage.other_ms", "ms"},
      {"skyline.dominance_tests", "count"},
      {"skyline.merge_dominance_tests", "count"},
      {"skyline.matrix_builds", "count"},
      {"skyline.sfs_rows_skipped", "count"},
      {"exec.rows_shipped", "count"},
      {"exec.bytes_shipped", "bytes"},
      {"exec.partitions_skipped", "count"},
      {"exec.rows_pruned_pre_gather", "count"},
      {"exec.tracked_peak_mb", "MB"},
      {"serve.fingerprint_us", "us"},
      {"serve.cache_lookup_us", "us"},
      {"serve.cache_insert_us", "us"},
      {"serve.hit_ratio", "ratio"},
      {"serve.reads", "count"},
      {"serve.queue_wait_us", "us"},
      {"serve.delta_maintained", "count"},
      {"serve.maintain_fallbacks", "count"},
      {"catalog.insert_ms", "ms"},
      {"catalog.drain_ms", "ms"},
      {"catalog.table_rows", "count"},
      {"trace.overhead_us", "us"},
      {"trace.spans", "count"}};
  for (const auto& [name, unit] : kLayers) {
    report->metrics.push_back({name, sums.MeanOf(name), unit});
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ReportJson(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
