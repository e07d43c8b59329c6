#ifndef SAPLA_SEARCH_SEARCH_INDEX_H_
#define SAPLA_SEARCH_SEARCH_INDEX_H_

// Query-facing index abstraction shared by the single-shard SimilarityIndex
// (search/knn.h), the sharded tier (search/sharded_index.h) and the live
// ingest tier (ingest/ingest_controller.h).
//
// The serving layer (serve/service.h) programs against this interface only,
// so one QueryService can front a standalone index, an N-shard fleet or a
// live corpus without knowing which. Every query goes through one method:
//
//   Search(query, QuerySpec, explain)
//
// QuerySpec names the whole GEMINI procedure (paper §5-6): reduce the
// query, traverse under node bounds, filter leaf entries by Dist_LB, refine
// on the raw series. k-NN and epsilon-range differ only in the pruning
// bound (the k-th best distance vs. the radius); `lower_bound` stops after
// the filter and reports lower-bound distances (the degraded fallback).
// SearchBatch is the one batch loop; Knn / RangeSearch / KnnBatch / ... are
// non-virtual spellings of particular QuerySpecs. The contract every
// implementation honours:
//
//  - Answers are deterministic: neighbors ascend by (distance, id), and the
//    same query against the same corpus returns bit-identical results at
//    every thread count.
//  - When `explain` is non-null, its per-part counters sum exactly to
//    explain->counters, which equal the returned result's counters.
//  - corpus_id() changes whenever the served corpus changes (rebuild,
//    snapshot restore, generation swap). The serve result cache keys on it,
//    making stale hits structurally impossible.
//  - After construction/Build the object is immutable from the query path's
//    view; Search is const and safe to call concurrently. (ShardedIndex
//    additionally supports live swaps — see its header for the publication
//    protocol that preserves this guarantee per query.)

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "index/index_backend.h"
#include "obs/counters.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "reduction/representation.h"

namespace sapla {

/// One answer set: (exact distance, series id) ascending by distance,
/// equal distances broken by ascending id (deterministic across thread
/// counts, backends and shard counts).
struct KnnResult {
  std::vector<std::pair<double, size_t>> neighbors;
  /// Series whose raw distance was computed ("had to be measured").
  size_t num_measured = 0;
  /// Per-query work breakdown (obs/counters.h): node expansions by level,
  /// entries pruned at node vs. leaf, lower-bound / exact evaluation counts
  /// and tightness. Invariant: counters.exact_evaluations == num_measured.
  /// Deterministic — identical between Search and SearchBatch at any
  /// thread count.
  SearchCounters counters;
  /// True when the answer was not computed by the full exact path — e.g. a
  /// degraded shard contributed lower-bound-only candidates or an unhealthy
  /// shard was excluded from the scatter. Approximate answers are never
  /// inserted into the serve result cache.
  bool approximate = false;
};

/// What one query asks for. k-NN keeps the `k` nearest series; range keeps
/// every series within `radius` (inclusive). With `lower_bound` the answer
/// comes from the reduced representations only: distances are lower
/// bounds, no raw series is touched (num_measured == 0), and a range
/// answer's ids are a superset of the exact ones.
struct QuerySpec {
  enum class Kind { kKnn, kRange };
  Kind kind = Kind::kKnn;
  size_t k = 0;
  double radius = 0.0;
  bool lower_bound = false;

  static QuerySpec Knn(size_t k, bool lower_bound = false) {
    return {Kind::kKnn, k, 0.0, lower_bound};
  }
  static QuerySpec Range(double radius, bool lower_bound = false) {
    return {Kind::kRange, 0, radius, lower_bound};
  }
  bool knn() const { return kind == Kind::kKnn; }
};

/// Controls one SearchBatch call.
struct SearchBatchOptions {
  /// Fan-out cap; 0 = the global default (see util/parallel.h).
  size_t num_threads = 0;
  /// Cooperative cancellation hook: when set, invoked with the query
  /// index immediately before that query executes; returning true skips
  /// the query, leaving results[i] empty (no neighbors, num_measured ==
  /// 0). Must be thread-safe — it is called from pool workers. The
  /// serving layer uses this to drop requests whose deadline passed
  /// while the batch was queued.
  std::function<bool(size_t)> cancel;
  /// Request-scoped trace context for query i (obs/trace.h): when set, the
  /// worker executing query i installs it before searching, so per-query
  /// spans stitch into the submitting request's trace tree instead of the
  /// batch thread's ambient context. Must be thread-safe.
  std::function<obs::TraceContext(size_t)> trace_of;
  /// Explain sink for query i: when set and non-null for i, the worker
  /// fills the per-part / per-stage breakdown (obs/explain.h) alongside the
  /// normal result. The pointed-to QueryExplain must outlive the batch
  /// call; each index is written by exactly one worker. Must be
  /// thread-safe.
  std::function<obs::QueryExplain*(size_t)> explain_of;
};

/// Health of one shard as seen by the scatter layer. Mirrors the serving
/// tier's degradation ladder (docs/ROBUSTNESS.md) at shard granularity.
enum class ShardHealth : int {
  kHealthy = 0,    ///< full exact search
  kDegraded = 1,   ///< lower-bound-only answers (approximate)
  kUnhealthy = 2,  ///< excluded from the scatter entirely
};

inline const char* ShardHealthName(ShardHealth h) {
  switch (h) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

/// \brief Abstract searchable corpus: the serving layer's only view of an
/// index.
class SearchIndex {
 public:
  using BatchOptions = SearchBatchOptions;

  virtual ~SearchIndex() = default;

  /// Answers one query for a raw series of the dataset's length. k-NN with
  /// k == 0 returns an empty result without touching the index. When
  /// `explain` is non-null it receives the per-part / per-stage breakdown
  /// (obs/explain.h) of this very execution.
  virtual KnnResult Search(const std::vector<double>& query,
                           const QuerySpec& spec,
                           obs::QueryExplain* explain) const = 0;

  /// Search over many queries with per-query cancellation, trace re-binding
  /// and explain sinks (BatchOptions); non-cancelled entries are exactly
  /// Search(queries[i], spec, ...) at every thread count.
  std::vector<KnnResult> SearchBatch(
      const std::vector<std::vector<double>>& queries, const QuerySpec& spec,
      const BatchOptions& options) const;

  // Spellings of particular QuerySpecs.
  KnnResult Knn(const std::vector<double>& query, size_t k) const {
    return Search(query, QuerySpec::Knn(k), nullptr);
  }
  KnnResult KnnLowerBound(const std::vector<double>& query, size_t k) const {
    return Search(query, QuerySpec::Knn(k, true), nullptr);
  }
  KnnResult KnnExplain(const std::vector<double>& query, size_t k,
                       obs::QueryExplain* explain) const {
    return Search(query, QuerySpec::Knn(k), explain);
  }
  KnnResult RangeSearch(const std::vector<double>& query,
                        double radius) const {
    return Search(query, QuerySpec::Range(radius), nullptr);
  }
  KnnResult RangeSearchLowerBound(const std::vector<double>& query,
                                  double radius) const {
    return Search(query, QuerySpec::Range(radius, true), nullptr);
  }
  std::vector<KnnResult> KnnBatch(
      const std::vector<std::vector<double>>& queries, size_t k,
      const BatchOptions& options) const {
    return SearchBatch(queries, QuerySpec::Knn(k), options);
  }
  std::vector<KnnResult> RangeSearchBatch(
      const std::vector<std::vector<double>>& queries, double radius,
      const BatchOptions& options) const {
    return SearchBatch(queries, QuerySpec::Range(radius), options);
  }
  /// Batch spellings fanned across the pool capped at `num_threads`
  /// (0 = global default), no cancellation.
  std::vector<KnnResult> KnnBatch(
      const std::vector<std::vector<double>>& queries, size_t k,
      size_t num_threads = 0) const {
    BatchOptions options;
    options.num_threads = num_threads;
    return KnnBatch(queries, k, options);
  }
  std::vector<KnnResult> RangeSearchBatch(
      const std::vector<std::vector<double>>& queries, double radius,
      size_t num_threads = 0) const {
    BatchOptions options;
    options.num_threads = num_threads;
    return RangeSearchBatch(queries, radius, options);
  }

  virtual Method method() const = 0;
  virtual IndexKind kind() const = 0;
  /// Number of indexed series (0 before Build).
  virtual size_t dataset_size() const = 0;
  /// Length of the indexed series (0 before Build). The serving layer
  /// validates incoming query lengths against this.
  virtual size_t series_length() const = 0;
  /// Stable corpus identity: changes on every rebuild, restore or swap, so
  /// results cached under an old corpus (serve/result_cache.h) can never be
  /// served against a new one.
  virtual uint64_t corpus_id() const = 0;

  /// Shard topology; a standalone index is one always-healthy shard.
  virtual size_t num_shards() const { return 1; }
  virtual ShardHealth shard_health(size_t /*shard*/) const {
    return ShardHealth::kHealthy;
  }

  /// Memory residency of the served corpus (resident vs. mmap-backed
  /// bytes, frame-cache hit/miss counters; representation_store.h). The
  /// serving layer exports these as gauges. Implementations sum across
  /// shards/generations; the default reports nothing.
  virtual StoreFootprint footprint() const { return StoreFootprint{}; }
};

}  // namespace sapla

#endif  // SAPLA_SEARCH_SEARCH_INDEX_H_
