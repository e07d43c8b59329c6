#ifndef SAPLA_OBS_METRICS_H_
#define SAPLA_OBS_METRICS_H_

// Unified metrics registry and export (formerly serve/metrics.h).
//
// All counters are plain atomics and all distributions are fixed-bucket
// histograms (util/histogram.h), so recording from the admission path, the
// scheduler thread and the pool workers is wait-free and never serializes
// request processing. Readers take an instantaneous Snapshot — a plain
// struct of numbers — and render it through one of three writers:
//
//   MetricsToTable       the repo's aligned-table format (util/table.h),
//                        printable or CSV/JSON via the Table methods
//   MetricsToPrometheus  Prometheus text exposition (counters as _total,
//                        histograms with cumulative le-buckets, _sum and
//                        _count) — scrape-ready; tools/sapla_promcheck
//                        validates the format in CI
//   MetricsToJson        one structured JSON snapshot document
//
// Beyond the serving-lifecycle metrics (see glossary below), the registry
// aggregates per-query SearchCounters (obs/counters.h) from every executed
// request, so the paper's pruning power (Eq. 14, Fig. 13) and node-access
// counts (Figs. 15/16) are live serving metrics instead of bench-only
// numbers.
//
// Glossary (docs/OBSERVABILITY.md has the full prose):
//   admitted            requests accepted into the bounded queue
//   rejected_overloaded requests refused at admission (queue full)
//   rejected_shutdown   requests refused because the service was stopped
//   completed_ok        requests answered with exact results
//   deadline_exceeded   requests dropped because their deadline passed
//   degraded            deadline-exceeded requests that still got an
//                       approximate lower-bound-only answer
//   degraded_served     requests answered inline with approximate results
//                       because the service was in the degraded state
//   rejected_unhealthy  requests refused because the service was unhealthy
//   flush_failures      micro-batches that failed as a unit
//   watchdog_stalls     watchdog observations of a newly stalled scheduler
//   health              gauge: degradation-ladder position (0/1/2)
//   store_resident_bytes gauge: corpus bytes decoded/resident in memory
//   store_mapped_bytes  gauge: corpus bytes served from mmap'd cold columns
//   store_frame_hits/misses gauges: cold-tier decode-cache traffic
//   cache_hits/misses   result-cache outcome at admission time
//   batches_flushed     micro-batches executed
//   queue_wait_us       admission -> start of the request's flush
//   exec_us             wall time of the flush that ran the request
//   total_us            admission -> response resolution
//   batch_size          requests per flushed micro-batch
//   queue_depth         queue length observed after each admission

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "util/histogram.h"
#include "util/resource_budget.h"
#include "util/table.h"

namespace sapla {

/// \brief Wait-free aggregate of SearchCounters across queries.
struct AtomicSearchCounters {
  std::atomic<uint64_t> queries{0};
  /// Sum of dataset sizes over aggregated queries (rho's denominator).
  std::atomic<uint64_t> candidates{0};
  std::atomic<uint64_t> nodes_visited_internal{0};
  std::atomic<uint64_t> nodes_visited_leaf{0};
  std::atomic<uint64_t> nodes_pruned{0};
  std::atomic<uint64_t> node_bound_evaluations{0};
  std::atomic<uint64_t> lb_evaluations{0};
  std::atomic<uint64_t> exact_evaluations{0};
  std::atomic<uint64_t> entries_pruned_leaf{0};
  std::atomic<uint64_t> entries_pruned_node{0};
  /// Tightness sum in millionths (fixed-point so the add stays wait-free).
  std::atomic<uint64_t> tightness_sum_micro{0};
  std::atomic<uint64_t> tightness_count{0};

  /// Merges one executed query's counters. Thread-safe, wait-free.
  void Add(const SearchCounters& c, size_t dataset_size);
};

/// Point-in-time copy of AtomicSearchCounters plus derived ratios.
struct SearchCountersSnapshot {
  uint64_t queries = 0;
  uint64_t candidates = 0;
  uint64_t nodes_visited_internal = 0;
  uint64_t nodes_visited_leaf = 0;
  uint64_t nodes_pruned = 0;
  uint64_t node_bound_evaluations = 0;
  uint64_t lb_evaluations = 0;
  uint64_t exact_evaluations = 0;
  uint64_t entries_pruned_leaf = 0;
  uint64_t entries_pruned_node = 0;
  double tightness_sum = 0.0;
  uint64_t tightness_count = 0;

  /// Live pruning power rho (Eq. 14): measured / candidates; 0 when idle.
  double PruningPower() const;
  /// Mean filter tightness over measured pairs; 0 when idle.
  double MeanTightness() const;
};

/// \brief Live, thread-safe metrics for one QueryService instance.
struct ServeMetrics {
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> rejected_overloaded{0};
  std::atomic<uint64_t> rejected_shutdown{0};
  std::atomic<uint64_t> completed_ok{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> batches_flushed{0};

  // Degradation ladder (serve/service.h, docs/ROBUSTNESS.md).
  std::atomic<uint64_t> degraded_served{0};
  std::atomic<uint64_t> rejected_unhealthy{0};
  std::atomic<uint64_t> flush_failures{0};
  std::atomic<uint64_t> watchdog_stalls{0};
  /// Gauge, not a counter: current ladder position (0 healthy, 1 degraded,
  /// 2 unhealthy), kept up to date by the owning QueryService.
  std::atomic<uint64_t> health{0};

  /// Per-shard health gauges (0 healthy, 1 degraded, 2 unhealthy), exported
  /// as labeled `shard_health{shard="N"}` rows. Fixed capacity keeps the
  /// registry allocation-free; fleets beyond kMaxShardGauges export the
  /// first kMaxShardGauges shards. shard_count says how many are live.
  static constexpr size_t kMaxShardGauges = 64;
  std::atomic<uint64_t> shard_count{0};
  std::array<std::atomic<uint64_t>, kMaxShardGauges> shard_health{};

  /// Corpus residency gauges (SearchIndex::footprint), refreshed alongside
  /// the shard-health gauges: bytes of representation data resident in
  /// memory vs. served from mmap-backed cold columns, and the cold tier's
  /// cumulative frame-cache traffic. All zero for a fully hot index except
  /// store_resident_bytes.
  std::atomic<uint64_t> store_resident_bytes{0};
  std::atomic<uint64_t> store_mapped_bytes{0};
  std::atomic<uint64_t> store_frame_hits{0};
  std::atomic<uint64_t> store_frame_misses{0};

  /// Requests that crossed a slow-query threshold (serve/service.h) and
  /// produced a slow-query log record.
  std::atomic<uint64_t> slow_queries{0};

  // Resource governance (util/resource_budget.h, docs/ROBUSTNESS.md).
  /// Requests shed at admission by queue-delay adaptive control (oldest
  /// queued arrival older than the target; low-priority work bounced).
  std::atomic<uint64_t> shed_early{0};
  /// Result-cache shrinks forced by soft memory pressure.
  std::atomic<uint64_t> budget_cache_shrinks{0};
  /// Requests degraded to lower-bound-only answers by hard memory
  /// pressure (as opposed to scheduler-stall degradation).
  std::atomic<uint64_t> budget_degraded{0};

  AtomicSearchCounters search;

  Histogram queue_wait_us;
  Histogram exec_us;
  Histogram total_us;
  Histogram batch_size;
  Histogram queue_depth;

  /// Sliding-window companions to total_us / exec_us
  /// (util/histogram.h WindowedHistogram): quantiles over roughly the last
  /// ServeOptions::window_us instead of the process lifetime. Exported as
  /// `<prefix>_window_latency_us{stage=...,quantile=...}` gauges.
  WindowedHistogram window_total_us;
  WindowedHistogram window_exec_us;
};

/// One histogram, collapsed to the numbers reports care about. Quantiles
/// and mean are NaN when the histogram is empty (rendered "--" / omitted).
struct HistogramSnapshot {
  uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  uint64_t max = 0;
};

/// Point-in-time copy of every metric; safe to read field by field.
struct ServeMetricsSnapshot {
  uint64_t admitted = 0;
  uint64_t rejected_overloaded = 0;
  uint64_t rejected_shutdown = 0;
  uint64_t completed_ok = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t degraded = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t batches_flushed = 0;

  uint64_t degraded_served = 0;
  uint64_t rejected_unhealthy = 0;
  uint64_t flush_failures = 0;
  uint64_t watchdog_stalls = 0;
  uint64_t shed_early = 0;
  uint64_t budget_cache_shrinks = 0;
  uint64_t budget_degraded = 0;
  uint64_t health = 0;
  /// One ladder position per live shard (empty for a non-sharded service).
  std::vector<uint64_t> shard_health;

  uint64_t store_resident_bytes = 0;
  uint64_t store_mapped_bytes = 0;
  uint64_t store_frame_hits = 0;
  uint64_t store_frame_misses = 0;

  uint64_t slow_queries = 0;

  SearchCountersSnapshot search;

  HistogramSnapshot queue_wait_us;
  HistogramSnapshot exec_us;
  HistogramSnapshot total_us;
  HistogramSnapshot batch_size;
  HistogramSnapshot queue_depth;

  /// Live-window views of total_us / exec_us (see ServeMetrics); the
  /// window length rides along so exports can label the semantics.
  uint64_t window_us = 0;
  HistogramSnapshot window_total_us;
  HistogramSnapshot window_exec_us;

  /// cache_hits / (cache_hits + cache_misses); 0 with no lookups.
  double CacheHitRate() const;
};

/// Collapses one histogram (concurrent-safe; see util/histogram.h).
HistogramSnapshot SnapshotHistogram(const Histogram& h);

/// Snapshots the search-counter aggregate.
SearchCountersSnapshot SnapshotSearchCounters(const AtomicSearchCounters& c);

/// Snapshots every counter and histogram.
ServeMetricsSnapshot SnapshotMetrics(const ServeMetrics& metrics);

/// Renders a snapshot as one table (counters first, then one row per
/// histogram with count/mean/p50/p95/p99/max; empty histograms render "--"),
/// printable or CSV/JSON via util/table.h.
Table MetricsToTable(const ServeMetricsSnapshot& snap,
                     const std::string& title = "Serve metrics");

/// Prometheus text exposition of the registry. Takes the live registry (not
/// a snapshot) because histogram export needs the raw bucket counts.
/// Counters become `<prefix>_<name>_total`, gauges stay bare, histograms
/// emit cumulative `_bucket{le="..."}` lines plus `_sum` and `_count`.
std::string MetricsToPrometheus(const ServeMetrics& metrics,
                                const std::string& prefix = "sapla");

/// Writes MetricsToPrometheus to `path`. Returns false on I/O failure.
bool WritePrometheus(const ServeMetrics& metrics, const std::string& path,
                     const std::string& prefix = "sapla");

/// One structured JSON document: {"counters": {...}, "search": {...},
/// "histograms": {name: {count, mean, p50, p95, p99, max}}}. Empty
/// histograms emit null for mean/quantiles (NaN is not valid JSON).
std::string MetricsToJson(const ServeMetricsSnapshot& snap);

/// Writes MetricsToJson to `path`. Returns false on I/O failure.
bool WriteMetricsJson(const ServeMetricsSnapshot& snap,
                      const std::string& path);

// ---------------------------------------------------------------------------
// Ingest metrics (src/ingest/ingest_controller.h).
//
// Same wait-free discipline as ServeMetrics: the writer path (one mutation
// at a time under the controller's writer lock, plus query threads reading
// gauges) only touches relaxed atomics. Exported under the `sapla_ingest_`
// prefix; tools/sapla_promcheck validates the families in CI.
//
// Glossary (docs/INGEST.md):
//   inserts / deletes    acknowledged mutations (WAL-logged when durable)
//   rejected_overloaded  inserts refused by admission control (too many
//                        sealed minors awaiting compaction)
//   seals                memtables frozen into minor generations
//   compactions          minor+main merges into a fresh main generation
//   checkpoints          manifest+snapshot+WAL-truncation cycles
//   wal_records/bytes    frames appended to the write-ahead log
//   wal_replayed         records applied by Recover()
//   memtable_size        gauge: entries in the live memtable
//   sealed_minors        gauge: minor generations awaiting compaction
//   tombstones           gauge: deleted/expired ids awaiting compaction
//   visible_series       gauge: series a query started now would see

/// \brief Live, thread-safe metrics for one IngestController.
struct IngestMetrics {
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> rejected_overloaded{0};
  std::atomic<uint64_t> seals{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> checkpoints{0};
  std::atomic<uint64_t> wal_records{0};
  std::atomic<uint64_t> wal_bytes{0};
  std::atomic<uint64_t> wal_replayed{0};
  /// Writes shed because the memory budget stayed hard-saturated after a
  /// forced seal/compaction (util/resource_budget.h).
  std::atomic<uint64_t> rejected_budget{0};
  /// Seal+compact cycles forced by budget pressure rather than the normal
  /// memtable_max / compact_min_minors triggers.
  std::atomic<uint64_t> budget_forced_compactions{0};

  // Gauges, kept current by the controller.
  std::atomic<uint64_t> memtable_size{0};
  std::atomic<uint64_t> sealed_minors{0};
  std::atomic<uint64_t> tombstones{0};
  std::atomic<uint64_t> visible_series{0};
  /// Bytes the controller currently accounts against its memory budget
  /// (memtable + sealed minors).
  std::atomic<uint64_t> budget_bytes{0};
};

/// Point-in-time copy of every ingest metric.
struct IngestMetricsSnapshot {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t rejected_overloaded = 0;
  uint64_t seals = 0;
  uint64_t compactions = 0;
  uint64_t checkpoints = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_replayed = 0;
  uint64_t rejected_budget = 0;
  uint64_t budget_forced_compactions = 0;
  uint64_t memtable_size = 0;
  uint64_t sealed_minors = 0;
  uint64_t tombstones = 0;
  uint64_t visible_series = 0;
  uint64_t budget_bytes = 0;
};

/// Snapshots every ingest counter and gauge.
IngestMetricsSnapshot SnapshotIngestMetrics(const IngestMetrics& metrics);

/// Renders an ingest snapshot as a two-column table.
Table IngestMetricsToTable(const IngestMetricsSnapshot& snap,
                           const std::string& title = "Ingest metrics");

/// Prometheus text exposition of the ingest registry: counters become
/// `<prefix>_<name>_total`, gauges stay bare. Concatenates cleanly after
/// MetricsToPrometheus output (distinct family names), which is how
/// sapla_loadgen exports a combined serve+ingest scrape.
std::string IngestMetricsToPrometheus(const IngestMetrics& metrics,
                                      const std::string& prefix =
                                          "sapla_ingest");

/// One structured JSON document for the ingest snapshot.
std::string IngestMetricsToJson(const IngestMetricsSnapshot& snap);

/// Prometheus text exposition of a ResourceBudget tree
/// (util/resource_budget.h): one labeled row per budget node, keyed by
/// `component="<name>"`, under `<prefix>_{capacity_bytes, used_bytes,
/// peak_used_bytes, pressure}` gauges and `<prefix>_{rejections,
/// overflows}_total` counters. Concatenates cleanly after the serve and
/// ingest expositions (distinct family names).
std::string BudgetMetricsToPrometheus(const ResourceBudget& root,
                                      const std::string& prefix =
                                          "sapla_budget");

/// Renders a budget tree as a table (one row per node).
Table BudgetMetricsToTable(const ResourceBudget& root,
                           const std::string& title = "Resource budgets");

}  // namespace sapla

#endif  // SAPLA_OBS_METRICS_H_
