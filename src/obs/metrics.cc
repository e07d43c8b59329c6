#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sapla {
namespace {

// Fixed-point scale for the tightness sum (wait-free double aggregation).
constexpr double kMicro = 1e6;

std::string U64(uint64_t v) { return std::to_string(v); }

std::string Double(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

void AtomicSearchCounters::Add(const SearchCounters& c, size_t dataset_size) {
  queries.fetch_add(1, std::memory_order_relaxed);
  candidates.fetch_add(dataset_size, std::memory_order_relaxed);
  nodes_visited_internal.fetch_add(c.nodes_visited_internal,
                                   std::memory_order_relaxed);
  nodes_visited_leaf.fetch_add(c.nodes_visited_leaf,
                               std::memory_order_relaxed);
  nodes_pruned.fetch_add(c.nodes_pruned, std::memory_order_relaxed);
  node_bound_evaluations.fetch_add(c.node_bound_evaluations,
                                   std::memory_order_relaxed);
  lb_evaluations.fetch_add(c.lb_evaluations, std::memory_order_relaxed);
  exact_evaluations.fetch_add(c.exact_evaluations, std::memory_order_relaxed);
  entries_pruned_leaf.fetch_add(c.entries_pruned_leaf,
                                std::memory_order_relaxed);
  entries_pruned_node.fetch_add(c.entries_pruned_node,
                                std::memory_order_relaxed);
  tightness_sum_micro.fetch_add(
      static_cast<uint64_t>(c.lb_tightness_sum * kMicro + 0.5),
      std::memory_order_relaxed);
  tightness_count.fetch_add(c.lb_tightness_count, std::memory_order_relaxed);
}

double SearchCountersSnapshot::PruningPower() const {
  return candidates == 0 ? 0.0
                         : static_cast<double>(exact_evaluations) /
                               static_cast<double>(candidates);
}

double SearchCountersSnapshot::MeanTightness() const {
  return tightness_count == 0
             ? 0.0
             : tightness_sum / static_cast<double>(tightness_count);
}

double ServeMetricsSnapshot::CacheHitRate() const {
  const uint64_t lookups = cache_hits + cache_misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(lookups);
}

HistogramSnapshot SnapshotHistogram(const Histogram& h) {
  HistogramSnapshot s;
  s.count = h.Count();
  s.mean = h.Mean();
  s.p50 = h.Quantile(0.50);
  s.p95 = h.Quantile(0.95);
  s.p99 = h.Quantile(0.99);
  s.max = h.Max();
  return s;
}

SearchCountersSnapshot SnapshotSearchCounters(const AtomicSearchCounters& c) {
  SearchCountersSnapshot s;
  s.queries = c.queries.load();
  s.candidates = c.candidates.load();
  s.nodes_visited_internal = c.nodes_visited_internal.load();
  s.nodes_visited_leaf = c.nodes_visited_leaf.load();
  s.nodes_pruned = c.nodes_pruned.load();
  s.node_bound_evaluations = c.node_bound_evaluations.load();
  s.lb_evaluations = c.lb_evaluations.load();
  s.exact_evaluations = c.exact_evaluations.load();
  s.entries_pruned_leaf = c.entries_pruned_leaf.load();
  s.entries_pruned_node = c.entries_pruned_node.load();
  s.tightness_sum = static_cast<double>(c.tightness_sum_micro.load()) / kMicro;
  s.tightness_count = c.tightness_count.load();
  return s;
}

ServeMetricsSnapshot SnapshotMetrics(const ServeMetrics& metrics) {
  ServeMetricsSnapshot s;
  s.admitted = metrics.admitted.load();
  s.rejected_overloaded = metrics.rejected_overloaded.load();
  s.rejected_shutdown = metrics.rejected_shutdown.load();
  s.completed_ok = metrics.completed_ok.load();
  s.deadline_exceeded = metrics.deadline_exceeded.load();
  s.degraded = metrics.degraded.load();
  s.cache_hits = metrics.cache_hits.load();
  s.cache_misses = metrics.cache_misses.load();
  s.batches_flushed = metrics.batches_flushed.load();
  s.degraded_served = metrics.degraded_served.load();
  s.rejected_unhealthy = metrics.rejected_unhealthy.load();
  s.flush_failures = metrics.flush_failures.load();
  s.watchdog_stalls = metrics.watchdog_stalls.load();
  s.shed_early = metrics.shed_early.load();
  s.budget_cache_shrinks = metrics.budget_cache_shrinks.load();
  s.budget_degraded = metrics.budget_degraded.load();
  s.health = metrics.health.load();
  const size_t shards = std::min<size_t>(metrics.shard_count.load(),
                                         ServeMetrics::kMaxShardGauges);
  s.shard_health.reserve(shards);
  for (size_t i = 0; i < shards; ++i)
    s.shard_health.push_back(metrics.shard_health[i].load());
  s.store_resident_bytes = metrics.store_resident_bytes.load();
  s.store_mapped_bytes = metrics.store_mapped_bytes.load();
  s.store_frame_hits = metrics.store_frame_hits.load();
  s.store_frame_misses = metrics.store_frame_misses.load();
  s.slow_queries = metrics.slow_queries.load();
  s.search = SnapshotSearchCounters(metrics.search);
  s.queue_wait_us = SnapshotHistogram(metrics.queue_wait_us);
  s.exec_us = SnapshotHistogram(metrics.exec_us);
  s.total_us = SnapshotHistogram(metrics.total_us);
  s.batch_size = SnapshotHistogram(metrics.batch_size);
  s.queue_depth = SnapshotHistogram(metrics.queue_depth);
  s.window_us = metrics.window_total_us.window_us();
  {
    Histogram merged;
    metrics.window_total_us.MergeInto(&merged);
    s.window_total_us = SnapshotHistogram(merged);
  }
  {
    Histogram merged;
    metrics.window_exec_us.MergeInto(&merged);
    s.window_exec_us = SnapshotHistogram(merged);
  }
  return s;
}

Table MetricsToTable(const ServeMetricsSnapshot& snap,
                     const std::string& title) {
  Table t(title);
  t.SetHeader({"Metric", "Count", "Mean", "P50", "P95", "P99", "Max"});
  const auto counter = [&](const std::string& name, uint64_t value) {
    t.AddRow({name, std::to_string(value), "", "", "", "", ""});
  };
  const auto ratio = [&](const std::string& name, double value) {
    t.AddRow({name, Table::Num(value, 4), "", "", "", "", ""});
  };
  // An empty histogram has no percentiles: NaN upstream, "--" in the table
  // (the bug where an empty run reported bucket-0 edges as latencies).
  const auto hist = [&](const std::string& name, const HistogramSnapshot& h) {
    if (h.count == 0) {
      t.AddRow({name, "0", "--", "--", "--", "--", "--"});
      return;
    }
    t.AddRow({name, std::to_string(h.count), Table::Num(h.mean, 4),
              Table::Num(h.p50, 4), Table::Num(h.p95, 4), Table::Num(h.p99, 4),
              std::to_string(h.max)});
  };
  counter("admitted", snap.admitted);
  counter("rejected_overloaded", snap.rejected_overloaded);
  counter("rejected_shutdown", snap.rejected_shutdown);
  counter("completed_ok", snap.completed_ok);
  counter("deadline_exceeded", snap.deadline_exceeded);
  counter("degraded", snap.degraded);
  counter("cache_hits", snap.cache_hits);
  counter("cache_misses", snap.cache_misses);
  ratio("cache_hit_rate", snap.CacheHitRate());
  counter("batches_flushed", snap.batches_flushed);
  counter("degraded_served", snap.degraded_served);
  counter("rejected_unhealthy", snap.rejected_unhealthy);
  counter("flush_failures", snap.flush_failures);
  counter("watchdog_stalls", snap.watchdog_stalls);
  counter("slow_queries", snap.slow_queries);
  counter("shed_early", snap.shed_early);
  counter("budget_cache_shrinks", snap.budget_cache_shrinks);
  counter("budget_degraded", snap.budget_degraded);
  counter("health", snap.health);
  for (size_t i = 0; i < snap.shard_health.size(); ++i)
    counter("shard_health{shard=" + std::to_string(i) + "}",
            snap.shard_health[i]);
  counter("store_resident_bytes", snap.store_resident_bytes);
  counter("store_mapped_bytes", snap.store_mapped_bytes);
  counter("store_frame_hits", snap.store_frame_hits);
  counter("store_frame_misses", snap.store_frame_misses);
  counter("search_queries", snap.search.queries);
  counter("search_nodes_visited_internal", snap.search.nodes_visited_internal);
  counter("search_nodes_visited_leaf", snap.search.nodes_visited_leaf);
  counter("search_nodes_pruned", snap.search.nodes_pruned);
  counter("search_node_bound_evaluations",
          snap.search.node_bound_evaluations);
  counter("search_lb_evaluations", snap.search.lb_evaluations);
  counter("search_exact_evaluations", snap.search.exact_evaluations);
  counter("search_entries_pruned_leaf", snap.search.entries_pruned_leaf);
  counter("search_entries_pruned_node", snap.search.entries_pruned_node);
  ratio("search_pruning_power", snap.search.PruningPower());
  ratio("search_mean_tightness", snap.search.MeanTightness());
  hist("queue_wait_us", snap.queue_wait_us);
  hist("exec_us", snap.exec_us);
  hist("total_us", snap.total_us);
  hist("batch_size", snap.batch_size);
  hist("queue_depth", snap.queue_depth);
  const std::string window_s = std::to_string(snap.window_us / 1'000'000);
  hist("window_total_us[" + window_s + "s]", snap.window_total_us);
  hist("window_exec_us[" + window_s + "s]", snap.window_exec_us);
  return t;
}

namespace {

void AppendCounter(std::string& out, const std::string& prefix,
                   const std::string& name, const char* help, uint64_t value) {
  out += "# HELP " + prefix + "_" + name + "_total " + help + "\n";
  out += "# TYPE " + prefix + "_" + name + "_total counter\n";
  out += prefix + "_" + name + "_total " + U64(value) + "\n";
}

void AppendGauge(std::string& out, const std::string& prefix,
                 const std::string& name, const char* help, double value) {
  out += "# HELP " + prefix + "_" + name + " " + help + "\n";
  out += "# TYPE " + prefix + "_" + name + " gauge\n";
  out += prefix + "_" + name + " " + Double(value) + "\n";
}

void AppendHistogram(std::string& out, const std::string& prefix,
                     const std::string& name, const char* help,
                     const Histogram& h) {
  const std::string full = prefix + "_" + name;
  out += "# HELP " + full + " " + help + "\n";
  out += "# TYPE " + full + " histogram\n";
  // One instantaneous bucket snapshot keeps _count consistent with the
  // cumulative buckets even while writers record concurrently.
  uint64_t counts[Histogram::kNumBuckets];
  size_t last_used = 0;
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    counts[b] = h.BucketCount(b);
    if (counts[b] != 0) last_used = b;
  }
  uint64_t cum = 0;
  for (size_t b = 0; b <= last_used; ++b) {
    cum += counts[b];
    out += full + "_bucket{le=\"" + U64(Histogram::BucketUpper(b)) + "\"} " +
           U64(cum) + "\n";
  }
  for (size_t b = last_used + 1; b < Histogram::kNumBuckets; ++b)
    cum += counts[b];  // the tail is all zeros, but keep the math honest
  out += full + "_bucket{le=\"+Inf\"} " + U64(cum) + "\n";
  out += full + "_sum " + U64(h.Sum()) + "\n";
  out += full + "_count " + U64(cum) + "\n";
}

}  // namespace

std::string MetricsToPrometheus(const ServeMetrics& metrics,
                                const std::string& prefix) {
  const ServeMetricsSnapshot snap = SnapshotMetrics(metrics);
  std::string out;
  out.reserve(8192);
  AppendCounter(out, prefix, "admitted",
                "Requests accepted into the bounded queue.", snap.admitted);
  AppendCounter(out, prefix, "rejected_overloaded",
                "Requests refused at admission (queue full).",
                snap.rejected_overloaded);
  AppendCounter(out, prefix, "rejected_shutdown",
                "Requests refused because the service was stopped.",
                snap.rejected_shutdown);
  AppendCounter(out, prefix, "completed_ok",
                "Requests answered with exact results.", snap.completed_ok);
  AppendCounter(out, prefix, "deadline_exceeded",
                "Requests dropped because their deadline passed.",
                snap.deadline_exceeded);
  AppendCounter(out, prefix, "degraded",
                "Deadline-exceeded requests answered approximately.",
                snap.degraded);
  AppendCounter(out, prefix, "cache_hits",
                "Result-cache hits at admission time.", snap.cache_hits);
  AppendCounter(out, prefix, "cache_misses",
                "Result-cache misses at admission time.", snap.cache_misses);
  AppendCounter(out, prefix, "batches_flushed", "Micro-batches executed.",
                snap.batches_flushed);
  AppendCounter(out, prefix, "degraded_served",
                "Requests answered inline with approximate results while "
                "degraded.",
                snap.degraded_served);
  AppendCounter(out, prefix, "rejected_unhealthy",
                "Requests refused because the service was unhealthy.",
                snap.rejected_unhealthy);
  AppendCounter(out, prefix, "flush_failures",
                "Micro-batches that failed as a unit.", snap.flush_failures);
  AppendCounter(out, prefix, "watchdog_stalls",
                "Watchdog observations of a newly stalled scheduler.",
                snap.watchdog_stalls);
  AppendCounter(out, prefix, "slow_queries",
                "Requests that crossed a slow-query threshold and were "
                "logged.",
                snap.slow_queries);
  AppendCounter(out, prefix, "shed_early",
                "Requests shed at admission by queue-delay adaptive "
                "control.",
                snap.shed_early);
  AppendCounter(out, prefix, "budget_cache_shrinks",
                "Result-cache shrinks forced by soft memory pressure.",
                snap.budget_cache_shrinks);
  AppendCounter(out, prefix, "budget_degraded",
                "Requests degraded to lower-bound answers by hard memory "
                "pressure.",
                snap.budget_degraded);
  AppendCounter(out, prefix, "search_queries",
                "Index traversals aggregated into the search counters.",
                snap.search.queries);
  AppendCounter(out, prefix, "search_candidates",
                "Candidate entries across aggregated traversals "
                "(pruning-power denominator).",
                snap.search.candidates);
  AppendCounter(out, prefix, "search_nodes_visited_internal",
                "Internal index nodes expanded.",
                snap.search.nodes_visited_internal);
  AppendCounter(out, prefix, "search_nodes_visited_leaf",
                "Leaf index nodes expanded.", snap.search.nodes_visited_leaf);
  AppendCounter(out, prefix, "search_nodes_pruned",
                "Index nodes discarded by the pruning bound.",
                snap.search.nodes_pruned);
  AppendCounter(out, prefix, "search_node_bound_evaluations",
                "Query-side node-bound distance evaluations.",
                snap.search.node_bound_evaluations);
  AppendCounter(out, prefix, "search_lb_evaluations",
                "Lower-bound (filter) distance evaluations.",
                snap.search.lb_evaluations);
  AppendCounter(out, prefix, "search_exact_evaluations",
                "Exact (refine) distance evaluations — Eq. 14 numerator.",
                snap.search.exact_evaluations);
  AppendCounter(out, prefix, "search_entries_pruned_leaf",
                "Leaf entries rejected by the lower-bound filter.",
                snap.search.entries_pruned_leaf);
  AppendCounter(out, prefix, "search_entries_pruned_node",
                "Entries pruned with their subtree before any leaf visit.",
                snap.search.entries_pruned_node);
  AppendGauge(out, prefix, "cache_hit_rate",
              "cache_hits / (cache_hits + cache_misses).",
              snap.CacheHitRate());
  AppendGauge(out, prefix, "health",
              "Degradation-ladder position: 0 healthy, 1 degraded, "
              "2 unhealthy.",
              static_cast<double>(snap.health));
  if (!snap.shard_health.empty()) {
    out += "# HELP " + prefix +
           "_shard_health Per-shard ladder position: 0 healthy, 1 degraded, "
           "2 unhealthy.\n";
    out += "# TYPE " + prefix + "_shard_health gauge\n";
    for (size_t i = 0; i < snap.shard_health.size(); ++i)
      out += prefix + "_shard_health{shard=\"" + U64(i) + "\"} " +
             U64(snap.shard_health[i]) + "\n";
  }
  AppendGauge(out, prefix, "store_resident_bytes",
              "Corpus representation bytes decoded/resident in memory.",
              static_cast<double>(snap.store_resident_bytes));
  AppendGauge(out, prefix, "store_mapped_bytes",
              "Corpus representation bytes served from mmap'd cold columns.",
              static_cast<double>(snap.store_mapped_bytes));
  AppendGauge(out, prefix, "store_frame_hits",
              "Cold-tier decode-cache hits (cumulative).",
              static_cast<double>(snap.store_frame_hits));
  AppendGauge(out, prefix, "store_frame_misses",
              "Cold-tier decode-cache misses, i.e. frame decodes "
              "(cumulative).",
              static_cast<double>(snap.store_frame_misses));
  AppendGauge(out, prefix, "search_pruning_power",
              "Live pruning power rho (Eq. 14); lower is better.",
              snap.search.PruningPower());
  AppendGauge(out, prefix, "search_mean_tightness",
              "Mean lower-bound tightness over measured pairs.",
              snap.search.MeanTightness());
  AppendHistogram(out, prefix, "queue_wait_us",
                  "Admission to flush-start wait (microseconds).",
                  metrics.queue_wait_us);
  AppendHistogram(out, prefix, "exec_us",
                  "Wall time of the flush that ran the request "
                  "(microseconds).",
                  metrics.exec_us);
  AppendHistogram(out, prefix, "total_us",
                  "Admission to response resolution (microseconds).",
                  metrics.total_us);
  AppendHistogram(out, prefix, "batch_size",
                  "Requests per flushed micro-batch.", metrics.batch_size);
  AppendHistogram(out, prefix, "queue_depth",
                  "Queue length observed after each admission.",
                  metrics.queue_depth);
  // Windowed tail-latency gauges: live quantiles over roughly the last
  // window instead of the process lifetime. One family, labeled by stage
  // (total = admission->resolution, exec = batch wall time) and quantile.
  // Quantile rows are emitted only when the window saw traffic — an empty
  // window has no percentiles, and 0 would masquerade as a measurement.
  {
    const std::string window_s = U64(snap.window_us / 1'000'000);
    const std::string counts = prefix + "_window_requests";
    out += "# HELP " + counts + " Requests observed in the last " + window_s +
           "s window, per stage.\n";
    out += "# TYPE " + counts + " gauge\n";
    out += counts + "{stage=\"total\"} " + U64(snap.window_total_us.count) +
           "\n";
    out += counts + "{stage=\"exec\"} " + U64(snap.window_exec_us.count) +
           "\n";
    const std::string full = prefix + "_window_latency_us";
    out += "# HELP " + full + " Latency quantiles over the last " + window_s +
           "s (sliding window).\n";
    out += "# TYPE " + full + " gauge\n";
    const auto stage = [&](const char* name, const HistogramSnapshot& h) {
      if (h.count == 0) return;
      const auto q = [&](const char* quantile, double v) {
        out += full + "{stage=\"" + name + "\",quantile=\"" + quantile +
               "\"} " + Double(v) + "\n";
      };
      q("0.5", h.p50);
      q("0.95", h.p95);
      q("0.99", h.p99);
    };
    stage("total", snap.window_total_us);
    stage("exec", snap.window_exec_us);
  }
  return out;
}

bool WritePrometheus(const ServeMetrics& metrics, const std::string& path,
                     const std::string& prefix) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = MetricsToPrometheus(metrics, prefix);
  const bool ok = fwrite(text.data(), 1, text.size(), f) == text.size();
  return fclose(f) == 0 && ok;
}

namespace {

std::string JsonNumberOrNull(double v) {
  return std::isfinite(v) ? Double(v) : "null";
}

void AppendJsonHistogram(std::string& out, const char* name,
                         const HistogramSnapshot& h, bool last) {
  out += std::string("    \"") + name + "\": {\"count\": " + U64(h.count) +
         ", \"mean\": " + JsonNumberOrNull(h.mean) +
         ", \"p50\": " + JsonNumberOrNull(h.p50) +
         ", \"p95\": " + JsonNumberOrNull(h.p95) +
         ", \"p99\": " + JsonNumberOrNull(h.p99) +
         ", \"max\": " + U64(h.max) + "}";
  out += last ? "\n" : ",\n";
}

}  // namespace

std::string MetricsToJson(const ServeMetricsSnapshot& snap) {
  std::string out = "{\n  \"counters\": {\n";
  const auto counter = [&](const char* name, uint64_t v, bool last = false) {
    out += std::string("    \"") + name + "\": " + U64(v) +
           (last ? "\n" : ",\n");
  };
  counter("admitted", snap.admitted);
  counter("rejected_overloaded", snap.rejected_overloaded);
  counter("rejected_shutdown", snap.rejected_shutdown);
  counter("completed_ok", snap.completed_ok);
  counter("deadline_exceeded", snap.deadline_exceeded);
  counter("degraded", snap.degraded);
  counter("cache_hits", snap.cache_hits);
  counter("cache_misses", snap.cache_misses);
  counter("batches_flushed", snap.batches_flushed);
  counter("degraded_served", snap.degraded_served);
  counter("rejected_unhealthy", snap.rejected_unhealthy);
  counter("flush_failures", snap.flush_failures);
  counter("watchdog_stalls", snap.watchdog_stalls);
  counter("slow_queries", snap.slow_queries);
  counter("shed_early", snap.shed_early);
  counter("budget_cache_shrinks", snap.budget_cache_shrinks);
  counter("budget_degraded", snap.budget_degraded);
  counter("store_resident_bytes", snap.store_resident_bytes);
  counter("store_mapped_bytes", snap.store_mapped_bytes);
  counter("store_frame_hits", snap.store_frame_hits);
  counter("store_frame_misses", snap.store_frame_misses);
  counter("health", snap.health, /*last=*/true);
  out += "  },\n  \"cache_hit_rate\": " + Double(snap.CacheHitRate()) +
         ",\n  \"shard_health\": [";
  for (size_t i = 0; i < snap.shard_health.size(); ++i) {
    if (i != 0) out += ", ";
    out += U64(snap.shard_health[i]);
  }
  out += "],\n  \"search\": {\n";
  counter("queries", snap.search.queries);
  counter("candidates", snap.search.candidates);
  counter("nodes_visited_internal", snap.search.nodes_visited_internal);
  counter("nodes_visited_leaf", snap.search.nodes_visited_leaf);
  counter("nodes_pruned", snap.search.nodes_pruned);
  counter("node_bound_evaluations", snap.search.node_bound_evaluations);
  counter("lb_evaluations", snap.search.lb_evaluations);
  counter("exact_evaluations", snap.search.exact_evaluations);
  counter("entries_pruned_leaf", snap.search.entries_pruned_leaf);
  counter("entries_pruned_node", snap.search.entries_pruned_node);
  out += "    \"pruning_power\": " + Double(snap.search.PruningPower()) +
         ",\n    \"mean_tightness\": " + Double(snap.search.MeanTightness()) +
         "\n  },\n  \"histograms\": {\n";
  AppendJsonHistogram(out, "queue_wait_us", snap.queue_wait_us, false);
  AppendJsonHistogram(out, "exec_us", snap.exec_us, false);
  AppendJsonHistogram(out, "total_us", snap.total_us, false);
  AppendJsonHistogram(out, "batch_size", snap.batch_size, false);
  AppendJsonHistogram(out, "queue_depth", snap.queue_depth, true);
  out += "  },\n  \"window\": {\n    \"window_us\": " + U64(snap.window_us) +
         ",\n";
  AppendJsonHistogram(out, "total_us", snap.window_total_us, false);
  AppendJsonHistogram(out, "exec_us", snap.window_exec_us, true);
  out += "  }\n}\n";
  return out;
}

bool WriteMetricsJson(const ServeMetricsSnapshot& snap,
                      const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = MetricsToJson(snap);
  const bool ok = fwrite(json.data(), 1, json.size(), f) == json.size();
  return fclose(f) == 0 && ok;
}

IngestMetricsSnapshot SnapshotIngestMetrics(const IngestMetrics& metrics) {
  IngestMetricsSnapshot s;
  s.inserts = metrics.inserts.load();
  s.deletes = metrics.deletes.load();
  s.rejected_overloaded = metrics.rejected_overloaded.load();
  s.seals = metrics.seals.load();
  s.compactions = metrics.compactions.load();
  s.checkpoints = metrics.checkpoints.load();
  s.wal_records = metrics.wal_records.load();
  s.wal_bytes = metrics.wal_bytes.load();
  s.wal_replayed = metrics.wal_replayed.load();
  s.rejected_budget = metrics.rejected_budget.load();
  s.budget_forced_compactions = metrics.budget_forced_compactions.load();
  s.memtable_size = metrics.memtable_size.load();
  s.sealed_minors = metrics.sealed_minors.load();
  s.tombstones = metrics.tombstones.load();
  s.visible_series = metrics.visible_series.load();
  s.budget_bytes = metrics.budget_bytes.load();
  return s;
}

Table IngestMetricsToTable(const IngestMetricsSnapshot& snap,
                           const std::string& title) {
  Table t(title);
  t.SetHeader({"Metric", "Value"});
  const auto row = [&](const std::string& name, uint64_t value) {
    t.AddRow({name, std::to_string(value)});
  };
  row("inserts", snap.inserts);
  row("deletes", snap.deletes);
  row("rejected_overloaded", snap.rejected_overloaded);
  row("seals", snap.seals);
  row("compactions", snap.compactions);
  row("checkpoints", snap.checkpoints);
  row("wal_records", snap.wal_records);
  row("wal_bytes", snap.wal_bytes);
  row("wal_replayed", snap.wal_replayed);
  row("rejected_budget", snap.rejected_budget);
  row("budget_forced_compactions", snap.budget_forced_compactions);
  row("memtable_size", snap.memtable_size);
  row("sealed_minors", snap.sealed_minors);
  row("tombstones", snap.tombstones);
  row("visible_series", snap.visible_series);
  row("budget_bytes", snap.budget_bytes);
  return t;
}

std::string IngestMetricsToPrometheus(const IngestMetrics& metrics,
                                      const std::string& prefix) {
  const IngestMetricsSnapshot snap = SnapshotIngestMetrics(metrics);
  std::string out;
  out.reserve(2048);
  AppendCounter(out, prefix, "inserts", "Acknowledged series inserts.",
                snap.inserts);
  AppendCounter(out, prefix, "deletes", "Acknowledged series deletes.",
                snap.deletes);
  AppendCounter(out, prefix, "rejected_overloaded",
                "Inserts refused by ingest admission control.",
                snap.rejected_overloaded);
  AppendCounter(out, prefix, "seals",
                "Memtables frozen into minor generations.", snap.seals);
  AppendCounter(out, prefix, "compactions",
                "Minor+main merges into a fresh main generation.",
                snap.compactions);
  AppendCounter(out, prefix, "checkpoints",
                "Manifest + snapshot + WAL-truncation cycles.",
                snap.checkpoints);
  AppendCounter(out, prefix, "wal_records",
                "Frames appended to the write-ahead log.", snap.wal_records);
  AppendCounter(out, prefix, "wal_bytes",
                "Bytes appended to the write-ahead log.", snap.wal_bytes);
  AppendCounter(out, prefix, "wal_replayed",
                "Log records applied by recovery.", snap.wal_replayed);
  AppendCounter(out, prefix, "rejected_budget",
                "Writes shed because the memory budget stayed "
                "hard-saturated.",
                snap.rejected_budget);
  AppendCounter(out, prefix, "budget_forced_compactions",
                "Seal+compact cycles forced by budget pressure.",
                snap.budget_forced_compactions);
  AppendGauge(out, prefix, "memtable_size",
              "Entries in the live (unsealed) memtable.",
              static_cast<double>(snap.memtable_size));
  AppendGauge(out, prefix, "sealed_minors",
              "Minor generations awaiting compaction.",
              static_cast<double>(snap.sealed_minors));
  AppendGauge(out, prefix, "tombstones",
              "Deleted or expired ids awaiting compaction.",
              static_cast<double>(snap.tombstones));
  AppendGauge(out, prefix, "visible_series",
              "Series a query started now would see.",
              static_cast<double>(snap.visible_series));
  AppendGauge(out, prefix, "budget_bytes",
              "Bytes accounted against the ingest memory budget "
              "(memtable + sealed minors).",
              static_cast<double>(snap.budget_bytes));
  return out;
}

std::string IngestMetricsToJson(const IngestMetricsSnapshot& snap) {
  std::string out = "{\n  \"ingest\": {\n";
  const auto counter = [&](const char* name, uint64_t v, bool last = false) {
    out += std::string("    \"") + name + "\": " + U64(v) +
           (last ? "\n" : ",\n");
  };
  counter("inserts", snap.inserts);
  counter("deletes", snap.deletes);
  counter("rejected_overloaded", snap.rejected_overloaded);
  counter("seals", snap.seals);
  counter("compactions", snap.compactions);
  counter("checkpoints", snap.checkpoints);
  counter("wal_records", snap.wal_records);
  counter("wal_bytes", snap.wal_bytes);
  counter("wal_replayed", snap.wal_replayed);
  counter("rejected_budget", snap.rejected_budget);
  counter("budget_forced_compactions", snap.budget_forced_compactions);
  counter("memtable_size", snap.memtable_size);
  counter("sealed_minors", snap.sealed_minors);
  counter("tombstones", snap.tombstones);
  counter("visible_series", snap.visible_series);
  counter("budget_bytes", snap.budget_bytes, /*last=*/true);
  out += "  }\n}\n";
  return out;
}

std::string BudgetMetricsToPrometheus(const ResourceBudget& root,
                                      const std::string& prefix) {
  const std::vector<ResourceBudget::Snapshot> nodes = root.SnapshotTree();
  std::string out;
  out.reserve(1024);
  const auto family = [&](const std::string& name, const char* type,
                          const char* help,
                          uint64_t (*value)(
                              const ResourceBudget::Snapshot&)) {
    const std::string full = prefix + "_" + name;
    out += "# HELP " + full + " " + help + "\n";
    out += "# TYPE " + full + " " + type + "\n";
    for (const auto& node : nodes)
      out += full + "{component=\"" + node.name + "\"} " + U64(value(node)) +
             "\n";
  };
  family("capacity_bytes", "gauge",
         "Byte capacity of this budget (0 = locally unlimited).",
         [](const ResourceBudget::Snapshot& n) -> uint64_t {
           return n.capacity;
         });
  family("used_bytes", "gauge", "Bytes currently reserved on this budget.",
         [](const ResourceBudget::Snapshot& n) -> uint64_t { return n.used; });
  family("peak_used_bytes", "gauge",
         "High-water mark of reserved bytes since creation.",
         [](const ResourceBudget::Snapshot& n) -> uint64_t {
           return n.peak_used;
         });
  family("pressure", "gauge",
         "Watermark position: 0 none, 1 soft, 2 hard.",
         [](const ResourceBudget::Snapshot& n) -> uint64_t {
           return static_cast<uint64_t>(n.pressure);
         });
  family("rejections_total", "counter",
         "Reservations refused at the hard watermark.",
         [](const ResourceBudget::Snapshot& n) -> uint64_t {
           return n.rejections;
         });
  family("overflows_total", "counter",
         "Forced reservations that pushed usage past capacity.",
         [](const ResourceBudget::Snapshot& n) -> uint64_t {
           return n.overflows;
         });
  return out;
}

Table BudgetMetricsToTable(const ResourceBudget& root,
                           const std::string& title) {
  Table t(title);
  t.SetHeader({"Budget", "Used", "Capacity", "Peak", "Pressure", "Rejections",
               "Overflows"});
  for (const auto& node : root.SnapshotTree()) {
    t.AddRow({node.name, U64(node.used), U64(node.capacity),
              U64(node.peak_used), BudgetPressureName(node.pressure),
              U64(node.rejections), U64(node.overflows)});
  }
  return t;
}

}  // namespace sapla
