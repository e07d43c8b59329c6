#ifndef SAPLA_INDEX_INDEX_BACKEND_H_
#define SAPLA_INDEX_INDEX_BACKEND_H_

// Pluggable index-backend layer.
//
// SimilarityIndex (search/knn.h) used to hard-code its two tree structures
// behind `if (rtree_) ... else dbch_` branches. IndexBackend abstracts what
// the search layer actually needs from an index — insert one series id,
// run a best-first branch-and-bound traversal for one query, report tree
// statistics — so every query kind has a single backend-agnostic code
// path (SimilarityIndex::Search) over either tree.
//
// Concurrency contract: Insert is build-time-only and single-threaded. A
// backend is immutable once SimilarityIndex::Build returns; from then on
// BestFirstSearch and ComputeStats must be const and safe to call from many
// threads at once (the batch query APIs fan queries across a pool). Both
// shipped adapters satisfy this: their traversals only read the node
// arrays, and all per-query state lives on the caller's stack.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "index/tree_stats.h"
#include "obs/counters.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace sapla {

/// Which index structure backs a SimilarityIndex. (Historically defined in
/// search/knn.h; lives here so backends do not depend on the search layer.)
enum class IndexKind { kRTree, kDbchTree };

/// Name of a kind ("rtree" / "dbch"); also the backend's name().
std::string IndexKindName(IndexKind kind);

/// Tree fill factors; defaults follow the paper's §6 setup (min 2, max 5).
struct IndexBackendOptions {
  size_t min_fill = 2;
  size_t max_fill = 5;
  /// DBCH only: search with the sound endpoint-radius node distance instead
  /// of the paper's §5.3 heuristic (see index/dbch_tree.h). Makes DBCH
  /// answers exact (partition-invariant), which the sharded serving tier
  /// requires; the default keeps the paper's measured behavior (Fig. 13b).
  bool dbch_sound_bounds = false;
};

/// \brief What a backend is built over: the dataset, its reductions, and
/// the method configuration. The pointed-to objects are owned by the
/// caller (SimilarityIndex) and must outlive the backend; backends resolve
/// ids through them at call time, never copy them.
struct IndexBackendContext {
  Method method = Method::kSapla;
  size_t m = 0;                                ///< coefficient budget
  const Dataset* dataset = nullptr;            ///< raw series by id
  const RepresentationStore* store = nullptr;  ///< columnar reductions
  IndexBackendOptions options;

  /// View of series `id`'s reduction; works for every residency. For cold
  /// stores `pin` keeps the decoded frame alive for as long as the returned
  /// view is used; for hot stores it is left untouched.
  RepView rep_view(size_t id, StoreReadPin* pin) const {
    return store->view(id, pin);
  }

  /// Largest per-series lower-bound slack across the corpus (0 for
  /// lossless stores). Node-level bounds measured against quantized
  /// representations can exceed the true lower bound by up to this much,
  /// so backends must subtract it before pruning (reduction/column_codec.h
  /// explains the soundness argument).
  double max_lb_slack() const { return store->max_lb_slack(); }
};

/// \brief Abstract index structure over series ids.
class IndexBackend {
 public:
  /// Visits a leaf entry during search; receives the entry id and the
  /// current pruning bound, returns the (possibly tightened) bound.
  using VisitFn = std::function<double(size_t id, double bound)>;

  virtual ~IndexBackend() = default;

  /// IndexKindName of this backend's kind.
  virtual std::string name() const = 0;

  /// Inserts series `id` (its representation and raw values are resolved
  /// through the context). Build-time only; not thread-safe.
  virtual void Insert(size_t id) = 0;

  /// Best-first branch-and-bound traversal for one query: nodes are
  /// expanded in increasing lower-bound order and pruned once their bound
  /// exceeds the bound returned by `visit`. `query_rep` is a view of the
  /// query's reduction under the context's (method, m) — the view must stay
  /// valid for the duration of the call. When `counters` is non-null the
  /// backend records its node-level work (expansions by level, pruned
  /// nodes — obs/counters.h) into it; entry-level counters belong to the
  /// search layer's visit callback. Thread-safe after Build.
  virtual void BestFirstSearch(const std::vector<double>& query_raw,
                               const RepView& query_rep, const VisitFn& visit,
                               SearchCounters* counters = nullptr) const = 0;

  /// Structural statistics (Figs. 15/16). Thread-safe after Build.
  virtual TreeStats ComputeStats() const = 0;

  /// Serializes the built tree structure to bytes (search/snapshot.h embeds
  /// them in the index-snapshot format). The encoding is deterministic for
  /// a given tree, and Restore of the produced bytes reconstructs an
  /// identical traversal order. Backends without persistence support
  /// return Unimplemented (the snapshot layer then omits the tree and the
  /// loader falls back to re-insertion).
  virtual Result<std::string> SerializeTree() const {
    return Status::Unimplemented("backend \"" + name() +
                                 "\" does not serialize its tree");
  }

  /// Restores a tree previously produced by SerializeTree on an empty,
  /// freshly constructed backend whose context describes the same corpus.
  /// Validates structure (node/entry ids in range, box dims) and rejects
  /// malformed bytes without modifying the backend.
  virtual Status RestoreTree(const std::string& /*bytes*/) {
    return Status::Unimplemented("backend \"" + name() +
                                 "\" does not restore a serialized tree");
  }
};

/// Creates the backend of `kind` over `ctx`.
std::unique_ptr<IndexBackend> MakeIndexBackend(IndexKind kind,
                                               const IndexBackendContext& ctx);

}  // namespace sapla

#endif  // SAPLA_INDEX_INDEX_BACKEND_H_
