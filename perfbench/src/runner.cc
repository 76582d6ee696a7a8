#include <algorithm>
#include <cstdio>
#include <map>

#include "workload.h"

namespace perfbench {

namespace {

/// What the checks need of one read, kept until the timed region ends.
struct ReadRecord {
  int expect;
  uint64_t digest;
  bool simulated_over_latency;
};

class Runner {
 public:
  Runner(Workload* w, const Options& options) : w_(w), options_(options) {}

  Report Run() {
    const RegistryCounters at_start = RegistryCounters::Read();
    RunRound(/*timed=*/false, /*traced=*/false);
    if (options_.trace) RunRound(false, true);

    const RegistryCounters timed_start = RegistryCounters::Read();
    int rounds = 0;
    while (samples_.measured_s < options_.seconds || timed_reads_ < 200 ||
           (options_.trace && rounds % 2 == 1)) {
      RunRound(/*timed=*/true, /*traced=*/options_.trace && rounds % 2 == 1);
      ++rounds;
    }
    const RegistryCounters end = RegistryCounters::Read();

    Check(at_start, end);
    if (options_.trace) {
      AddRunLayers(timed_start, end);
      AddPerLayer(layers_, &report_);
      if (!options_.spans_path.empty() &&
          !spans_.WriteJsonLines(options_.spans_path)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     options_.spans_path.c_str());
      }
    } else {
      samples_.AddEndToEnd(&report_);
    }
    return report_;
  }

 private:
  void RunRound(bool timed, bool traced) {
    sparkline::Session* session = w_->session.get();
    w_->reset();
    const int64_t round_start = NowNanos();
    if (timed && samples_.setup_s == 0) {
      samples_.setup_s =
          static_cast<double>(round_start - options_.start_nanos) / 1e9;
    }
    for (const Op& op : w_->round) {
      ++report_.attempted;
      if (op.query < 0) {
        RunWrite(op, timed);
        continue;
      }
      const Query& q = w_->queries[static_cast<size_t>(op.query)];
      ReadResult r =
          traced ? ReadTraced(session, q.sql, w_->serve, &spans_, ++query_id_)
          : w_->serve ? ReadSubmit(session, q.sql)
                      : ReadCollect(session, q.sql);
      if (!r.status.ok()) {
        ++report_.failed;
        Note("query failed: " + q.sql + ": " + r.status.ToString());
        continue;
      }
      if (r.metrics.cache_hit) {
        ++hits_;
      } else if (r.metrics.cache_lookup_ms > 0) {
        ++misses_;
      }
      // A stage's slowest task cannot use more CPU time than the stage
      // takes, so the simulated cluster time is bounded by the latency.
      const bool over = r.executed && r.metrics.simulated_ms * 1e3 > r.latency_us;
      records_.push_back(ReadRecord{op.expect, ResultDigest(q, *r.rows), over});
      if (timed) Record(r, traced, static_cast<size_t>(&op - w_->round.data()));
    }
    if (timed) {
      samples_.measured_s +=
          static_cast<double>(NowNanos() - round_start) / 1e9;
    }
  }

  void RunWrite(const Op& op, bool timed) {
    sparkline::Catalog* catalog = w_->session->catalog();
    const WriteResult wr = Write(catalog, op.table, op.rows);
    sparkline::Result<sparkline::TablePtr> after = catalog->GetTable(op.table);
    if (!wr.status.ok() || !after.ok() ||
        (*after)->num_rows() != wr.table_rows + op.rows.size()) {
      ++report_.failed;
      Note("insert into " + op.table + " failed: " + wr.status.ToString());
      if (wr.status.ok()) report_.Fail("insert lost rows in " + op.table);
      return;
    }
    if (!timed) return;
    samples_.write_ms.push_back((wr.insert_us + wr.drain_us) / 1e3);
    layers_.Add("catalog.insert_ms", wr.insert_us / 1e3);
    layers_.Add("catalog.drain_ms", wr.drain_us / 1e3);
    layers_.Add("catalog.table_rows", static_cast<double>(wr.table_rows));
    ++timed_writes_;
  }

  void Record(const ReadResult& r, bool traced, size_t position) {
    ++timed_reads_;
    PositionTimes& at = positions_[position];
    if (!traced) {
      samples_.read_ms.push_back(r.latency_us / 1e3);
      if (r.executed) samples_.simulated_ms.push_back(r.metrics.simulated_ms);
      at.untraced_us.push_back(r.latency_us);
      return;
    }
    const LayerTimes& t = r.layers;
    at.traced_us.push_back(r.latency_us);
    at.parts_us.push_back(t.Sum());
    layers_.Add("sql.parse_us", t.parse);
    layers_.Add("analysis.analyze_us", t.analyze);
    if (w_->serve) {
      layers_.Add("serve.fingerprint_us", t.fingerprint);
      layers_.Add("serve.cache_lookup_us", t.lookup);
    }
    if (!r.executed) return;
    layers_.Add("optimizer.optimize_us", t.optimize);
    layers_.Add("exec.plan_us", t.plan);
    layers_.Add("exec.context_us", t.context);
    layers_.Add("exec.decode_us", t.decode);
    layers_.Add("exec.execute_ms", t.execute / 1e3);
    layers_.Add("exec.driver_us", t.execute - r.metrics.simulated_ms * 1e3);
    if (w_->serve) layers_.Add("serve.cache_insert_us", t.insert);
    AddEngineLayers(r.metrics, w_->session->config().cluster, &layers_);
  }

  void AddRunLayers(const RegistryCounters& start,
                    const RegistryCounters& end) {
    // Per round position (the same query in the same cache state in every
    // round), medians over rounds; then the mean over positions, so the
    // parts and the residual add up to the mean read.
    double unattributed = 0, overhead = 0;
    for (const auto& [position, at] : positions_) {
      const double untraced = Quantile(at.untraced_us, 0.5);
      unattributed += untraced - Quantile(at.parts_us, 0.5);
      overhead += Quantile(at.traced_us, 0.5) - untraced;
    }
    const double n = static_cast<double>(std::max<size_t>(1, positions_.size()));
    layers_.Add("api.unattributed_us", unattributed / n);
    layers_.Add("trace.overhead_us", overhead / n);
    layers_.Add("trace.spans", static_cast<double>(spans_.size()));
    const int64_t probes = hits_ + misses_;
    layers_.Add("serve.reads", static_cast<double>(probes));
    layers_.Add("serve.hit_ratio",
                probes == 0 ? 0 : static_cast<double>(hits_) / probes);
    const int64_t waits = end.queue_wait_count - start.queue_wait_count;
    layers_.Add("serve.queue_wait_us",
                waits == 0 ? 0
                           : static_cast<double>(end.queue_wait_sum_us -
                                                 start.queue_wait_sum_us) /
                                 waits);
    const double writes = static_cast<double>(std::max<int64_t>(1, timed_writes_));
    layers_.Add("serve.delta_maintained",
                static_cast<double>(end.maintained - start.maintained) / writes);
    layers_.Add("serve.maintain_fallbacks",
                static_cast<double>(end.fallbacks - start.fallbacks) / writes);
  }

  /// The checks, all outside the timed region: every answer against the
  /// benchmark's own, the simulated-time bound, and the per-read cache
  /// flags against the registry's counters.
  void Check(const RegistryCounters& start, const RegistryCounters& end) {
    std::map<int, uint64_t> expected;
    for (const ReadRecord& rec : records_) {
      auto it = expected.find(rec.expect);
      if (it == expected.end()) {
        it = expected.emplace(rec.expect, Digest(w_->expected(rec.expect),
                                                 OrderedFor(rec.expect)))
                 .first;
      }
      if (rec.digest != it->second || rec.simulated_over_latency) {
        ++report_.failed;
        report_.Fail(rec.simulated_over_latency
                         ? "simulated_ms above client latency for expect key " +
                               std::to_string(rec.expect)
                         : "wrong answer for expect key " +
                               std::to_string(rec.expect));
      }
    }
    if (end.cache_hits - start.cache_hits != hits_ ||
        end.cache_misses - start.cache_misses != misses_) {
      report_.Fail("cache flags (" + std::to_string(hits_) + " hits, " +
                   std::to_string(misses_) + " misses) disagree with the " +
                   "registry (" + std::to_string(end.cache_hits - start.cache_hits) +
                   ", " + std::to_string(end.cache_misses - start.cache_misses) +
                   ")");
    }
  }

  bool OrderedFor(int expect) const {
    for (const Op& op : w_->round) {
      if (op.expect == expect) {
        return w_->queries[static_cast<size_t>(op.query)].ordered;
      }
    }
    return false;
  }

  void Note(const std::string& what) {
    if (report_.errors.size() < 10) report_.errors.push_back(what);
  }

  Workload* w_;
  const Options& options_;
  Report report_;
  Samples samples_;
  LayerSums layers_;
  SpanLog spans_;
  std::vector<ReadRecord> records_;
  uint64_t query_id_ = 0;
  int64_t hits_ = 0, misses_ = 0;
  int64_t timed_reads_ = 0, timed_writes_ = 0;
  /// Client latency of the read at one round position: untraced, traced,
  /// and the sum of the traced layer parts.
  struct PositionTimes {
    std::vector<double> untraced_us, traced_us, parts_us;
  };
  std::map<size_t, PositionTimes> positions_;
};

}  // namespace

Report RunWorkload(Workload* w, const Options& options) {
  return Runner(w, options).Run();
}

}  // namespace perfbench
