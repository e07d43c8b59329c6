#ifndef SAPLA_SEARCH_FILTER_REFINE_H_
#define SAPLA_SEARCH_FILTER_REFINE_H_

// The GEMINI leaf step (paper §6) shared by every scan that answers a
// QuerySpec: the index's tree visitor (search/knn.cc), its lower-bound scan
// and the live memtable scan (ingest/ingest_controller.cc). Keeping the
// filter, the counters and the refinement in one place is what makes their
// distances and counters bit-identical.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "distance/kernels.h"
#include "geom/line_fit.h"
#include "obs/counters.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "search/search_index.h"
#include "ts/time_series.h"

namespace sapla {

/// Max-heap of the k best (distance, id) pairs; exposes the pruning bound.
/// Ordering is lexicographic on (distance, id): equal distances keep the
/// smaller id, so the answer set — not just its order — is deterministic
/// and identical between serial, batch and backend variants.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}

  void Offer(double dist, size_t id) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.emplace(dist, id);
    } else if (std::make_pair(dist, id) < heap_.top()) {
      heap_.pop();
      heap_.emplace(dist, id);
    }
  }

  double Bound() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.top().first;
  }

  std::vector<std::pair<double, size_t>> Sorted() const {
    std::vector<std::pair<double, size_t>> v(heap_.size());
    auto copy = heap_;
    for (size_t i = v.size(); i-- > 0;) {
      v[i] = copy.top();
      copy.pop();
    }
    return v;
  }

 private:
  size_t k_;
  std::priority_queue<std::pair<double, size_t>> heap_;
};

/// \brief One query's filter-and-refine state: the reduced query, the
/// answer heap and the query's counters.
class FilterRefine {
 public:
  /// Reduces `query` with (`reducer`, `m`) into a single-entry store, the
  /// same columnar path the corpus took. `query` must outlive this object.
  FilterRefine(const Reducer& reducer, size_t m,
               const std::vector<double>& query, const QuerySpec& spec)
      : query_(query),
        knn_(spec.knn()),
        lower_bound_(spec.lower_bound),
        radius_(spec.radius),
        fitter_(query),
        top_(knn_ ? spec.k : std::numeric_limits<size_t>::max()) {
    reducer.ReduceInto(query, m, &query_store_);
    query_rep_ = query_store_.view(0);
  }
  FilterRefine(const FilterRefine&) = delete;
  FilterRefine& operator=(const FilterRefine&) = delete;

  const RepView& query_rep() const { return query_rep_; }
  const PrefixFitter& fitter() const { return fitter_; }
  DistanceScratch* scratch() { return &scratch_; }
  /// Where the tree records its node-level work.
  SearchCounters* counters() { return &c_; }
  /// Current pruning bound: the k-th best distance so far, or the radius.
  double Bound() const { return knn_ ? top_.Bound() : radius_; }

  /// Leaf step for entry `local` of `store`, answered as `id` with raw
  /// series `raw`. Over a quantized store the filter distance is measured
  /// against the quantized representation, which can exceed the true
  /// lower bound by the entry's slack; subtracting it keeps the bound
  /// sound, and the exact refinement is untouched by quantization.
  void Visit(const RepresentationStore& store, size_t local, StoreReadPin* pin,
             const std::vector<double>& raw, size_t id) {
    double lb = FilterDistanceView(fitter_, query_rep_, store.view(local, pin),
                                   &scratch_);
    if (store.quantized()) lb = std::max(0.0, lb - store.lb_slack(local));
    Admit(lb, raw, id);
  }

  /// Counts one (slack-adjusted) lower bound, then offers it as the
  /// distance (lower-bound mode) or, when it does not exceed the pruning
  /// bound, refines with the exact distance to `raw`.
  void Admit(double lb, const std::vector<double>& raw, size_t id) {
    ++c_.lb_evaluations;
    if (lower_bound_) {
      if (knn_ || lb <= radius_) top_.Offer(lb, id);
      return;
    }
    if (!(lb <= Bound())) {
      ++c_.entries_pruned_leaf;
      return;
    }
    const double exact = EuclideanDistance(query_, raw);
    ++c_.exact_evaluations;
    if (exact > 0.0) {
      c_.lb_tightness_sum += lb / exact;
      ++c_.lb_tightness_count;
    }
    if (knn_ || exact <= radius_) top_.Offer(exact, id);
  }

  /// The answer over a corpus of `num_entries` entries. Entries that never
  /// reached Admit were pruned before any evaluation (at node level, or
  /// skipped as deleted), and the deepest cascade stage reached classifies
  /// the query for the serving-layer counters.
  KnnResult Finish(size_t num_entries) {
    KnnResult result;
    c_.entries_pruned_node = num_entries - c_.lb_evaluations;
    c_.cascade_stage = c_.exact_evaluations > 0 ? CascadeStage::kExact
                       : c_.lb_evaluations > 0  ? CascadeStage::kLeafFilter
                                                : CascadeStage::kNodePrune;
    result.counters = c_;
    result.num_measured = c_.exact_evaluations;
    result.neighbors = top_.Sorted();
    return result;
  }

 private:
  const std::vector<double>& query_;
  const bool knn_;
  const bool lower_bound_;
  const double radius_;
  RepresentationStore query_store_;
  RepView query_rep_;
  const PrefixFitter fitter_;
  DistanceScratch scratch_;
  TopK top_;
  SearchCounters c_;
};

}  // namespace sapla

#endif  // SAPLA_SEARCH_FILTER_REFINE_H_
