#ifndef SAPLA_SEARCH_KNN_H_
#define SAPLA_SEARCH_KNN_H_

// k-NN similarity search (GEMINI framework, paper §1 and §6).
//
// SimilarityIndex owns one dataset's reduced representations plus a
// pluggable IndexBackend (index/index_backend.h) — an R-tree over feature
// MBRs or a DBCH-tree over lower-bounding distances. Queries run best-first
// branch-and-bound: nodes are expanded in increasing lower-bound order;
// leaf entries are filtered by the per-method lower-bounding distance and
// only survivors are measured against the raw series. The number of raw
// measurements is the numerator of the paper's pruning power (Eq. 14).
//
// Concurrency model: Build is single-threaded from the caller's view (the
// reduction loop fans across the global thread pool internally); after
// Build returns the index is immutable, and Search / stats are const and
// safe to call concurrently. SearchBatch fans independent queries across
// the pool (util/parallel.h) and preserves the serial per-query results —
// including exact per-query num_measured — bit-identically at any thread
// count.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "index/index_backend.h"
#include "obs/counters.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "search/search_index.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace sapla {

/// Exact k-NN by full linear scan; num_measured == dataset size (0 when
/// k == 0).
KnnResult LinearScanKnn(const Dataset& dataset, const std::vector<double>& query,
                        size_t k);

/// Build-time telemetry (Fig. 14a's ingest time, Figs. 15/16 tree shape).
/// CPU seconds sum over all threads (CLOCK_PROCESS_CPUTIME_ID), so with a
/// parallel reduction reduce_cpu_seconds still measures total work while
/// reduce_wall_seconds shows the speedup.
struct BuildInfo {
  double reduce_cpu_seconds = 0.0;   ///< dimensionality-reduction CPU time
  double reduce_wall_seconds = 0.0;  ///< dimensionality-reduction wall time
  double insert_cpu_seconds = 0.0;   ///< tree insertion time (serial)
  TreeStats stats;
};

/// Back-compat alias: fill factors now live with the backend layer.
using SimilarityIndexOptions = IndexBackendOptions;

/// \brief A memory-resident similarity index over one dataset.
class SimilarityIndex : public SearchIndex {
 public:
  using Options = SimilarityIndexOptions;
  /// \param method reduction method used for every series and query.
  /// \param m representation-coefficient budget (Table 1).
  SimilarityIndex(Method method, size_t m, IndexKind kind,
                  const Options& options = {});
  ~SimilarityIndex();

  /// Reduces and inserts every series of `dataset`. The dataset must stay
  /// alive for the index's lifetime (raw series are referenced for the
  /// refinement step). Requires equal-length series of length >= 2. The
  /// per-series reduction fans across the global thread pool; insertion is
  /// serial (the trees are not concurrent structures).
  Status Build(const Dataset& dataset, BuildInfo* info = nullptr);

  /// Warm restart: adopts an already-reduced columnar corpus instead of
  /// re-running the reduction. `store` must describe `dataset` exactly
  /// (same method, size and series length); `tree_bytes`, when non-empty,
  /// is a serialized backend tree (IndexBackend::SerializeTree) restored
  /// without a single distance evaluation. An empty `tree_bytes` rebuilds
  /// the tree by the same serial id-order insertion Build uses — identical
  /// shape, but O(n) insert work. The store keeps the fresh process-unique
  /// id it was parsed with, so corpus_id() differs from the saved one.
  Status RestoreFromStore(const Dataset& dataset, RepresentationStore store,
                          const std::string& tree_bytes = {});

  /// One body for every QuerySpec: the query is reduced once, then either
  /// a best-first traversal (nodes expanded in increasing lower-bound
  /// order, pruned at the k-th best distance or the radius) feeds each
  /// leaf entry through the Dist_LB filter and the exact refinement, or —
  /// for `lower_bound` — one batched filter scan ranks the whole corpus by
  /// its lower bounds without touching a raw series. That lower-bound
  /// answer is the degraded fallback the serving layer returns for
  /// deadline-exceeded requests (serve/service.h). The explain, when asked
  /// for, attributes everything to one "index" part.
  KnnResult Search(const std::vector<double>& query, const QuerySpec& spec,
                   obs::QueryExplain* explain) const override;

  Method method() const override { return method_; }
  IndexKind kind() const override { return kind_; }
  /// Representation-coefficient budget the index was built with.
  size_t m() const { return m_; }
  const Options& options() const { return options_; }
  /// Number of indexed series (0 before Build).
  size_t dataset_size() const override { return dataset_ ? dataset_->size() : 0; }
  /// Length of the indexed series (0 before Build). The serving layer
  /// validates incoming query lengths against this.
  size_t series_length() const override {
    return dataset_ ? dataset_->length() : 0;
  }
  /// The backend after Build (nullptr before); exposed for diagnostics.
  const IndexBackend* backend() const { return backend_.get(); }
  /// The dataset passed to Build/RestoreFromStore (nullptr before); the
  /// snapshot layer fingerprints it.
  const Dataset* dataset() const { return dataset_; }
  /// The columnar corpus (empty before Build).
  const RepresentationStore& store() const { return store_; }
  /// Stable corpus identity: regenerated by every Build, so results cached
  /// under an old corpus (serve/result_cache.h) can never be served against
  /// a rebuilt index.
  uint64_t corpus_id() const override { return store_.id(); }
  /// Resident-vs-mapped bytes of the corpus store (cold stores report
  /// their frame-cache hit/miss counters too).
  StoreFootprint footprint() const override { return store_.footprint(); }
  TreeStats stats() const;

 private:
  Method method_;
  size_t m_;
  IndexKind kind_;
  Options options_;

  const Dataset* dataset_ = nullptr;
  std::unique_ptr<Reducer> reducer_;
  /// The corpus: contiguous SoA columns (representation_store.h).
  RepresentationStore store_;
  std::unique_ptr<IndexBackend> backend_;
};

}  // namespace sapla

#endif  // SAPLA_SEARCH_KNN_H_
