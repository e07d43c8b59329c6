#ifndef SAPLA_OBS_COUNTERS_H_
#define SAPLA_OBS_COUNTERS_H_

// Per-query search-work counters ("how much work did the index do").
//
// The paper's headline quantities are work avoided: pruning power rho
// (Eq. 14, Fig. 13) and index node accesses (Figs. 15/16). SearchCounters
// makes both observable per query instead of bench-only: the tree layer
// counts node expansions and node-level pruning during BestFirstSearch,
// the search layer counts filter (lower-bound) and refine (exact-distance)
// evaluations, and the struct rides along on every KnnResult — through the
// batch APIs and the serving layer — where obs/metrics.h aggregates it into
// the live registry.
//
// Counting is deterministic: a query's counters are identical between
// serial and batch execution at every thread count, because each query's
// traversal touches no shared mutable state (tests/search_counters_test.cc
// enforces 1/2/8-thread agreement). The invariants the counters satisfy for
// an exact Knn/RangeSearch over a dataset of size N:
//
//   lb_evaluations  == exact_evaluations + entries_pruned_leaf
//   N               == lb_evaluations + entries_pruned_node
//   exact_evaluations == KnnResult::num_measured  (rho's numerator, Eq. 14)

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace sapla {

/// How far a query's filter-and-refine cascade progressed.
enum class CascadeStage : uint8_t {
  kNone = 0,        ///< the query touched nothing (k == 0, empty index)
  kNodePrune = 1,   ///< node-level pruning only; no leaf entry was filtered
  kLeafFilter = 2,  ///< lower bounds evaluated; nothing measured exactly
  kExact = 3,       ///< at least one raw distance computed (full cascade)
};

const char* CascadeStageName(CascadeStage stage);

/// \brief Work performed by one index traversal. Plain counters, owned by
/// the query; merging (Add) is for aggregation across queries.
struct SearchCounters {
  /// Per-level resolution of node accesses (level 0 = root). Deeper levels
  /// collapse into the last slot; 16 levels cover any tree this library
  /// builds (fan-out >= 2 means 2^16 nodes before the slot saturates).
  static constexpr size_t kMaxLevels = 16;

  uint64_t nodes_visited_internal = 0;  ///< internal nodes expanded
  uint64_t nodes_visited_leaf = 0;      ///< leaf nodes expanded
  uint64_t nodes_visited_by_level[kMaxLevels] = {};
  /// Child nodes discarded by the bound — enqueued-then-obsolete ones and
  /// never-enqueued ones alike (the "node accesses avoided" of Fig. 15/16).
  uint64_t nodes_pruned = 0;
  /// Query-side node-bound distances computed: DBCH hull-endpoint
  /// distances (Dist_PAR to the query) and R-tree MINDIST calls.
  uint64_t node_bound_evaluations = 0;

  uint64_t lb_evaluations = 0;      ///< leaf entries whose lower bound ran
  uint64_t exact_evaluations = 0;   ///< raw distances computed (Eq. 14)
  uint64_t entries_pruned_leaf = 0; ///< leaf entries the lower bound rejected
  /// Dataset entries that never reached a leaf visit (pruned with their
  /// subtree). Filled by the search layer: N - lb_evaluations.
  uint64_t entries_pruned_node = 0;

  /// Sum of lb/exact over measured entries with exact > 0 (filter
  /// tightness, cf. bench_tightness); mean = sum / count.
  double lb_tightness_sum = 0.0;
  uint64_t lb_tightness_count = 0;

  CascadeStage cascade_stage = CascadeStage::kNone;

  uint64_t nodes_visited() const {
    return nodes_visited_internal + nodes_visited_leaf;
  }

  /// Mean filter tightness in [0, 1]; 0 with no measured pairs.
  double MeanTightness() const {
    return lb_tightness_count == 0
               ? 0.0
               : lb_tightness_sum / static_cast<double>(lb_tightness_count);
  }

  /// Pruning power rho (Eq. 14) reconstructed from the counters.
  double PruningPower(size_t dataset_size) const {
    return dataset_size == 0 ? 0.0
                             : static_cast<double>(exact_evaluations) /
                                   static_cast<double>(dataset_size);
  }

  /// Merges another query's counters into this aggregate.
  void Add(const SearchCounters& other) {
    nodes_visited_internal += other.nodes_visited_internal;
    nodes_visited_leaf += other.nodes_visited_leaf;
    for (size_t l = 0; l < kMaxLevels; ++l)
      nodes_visited_by_level[l] += other.nodes_visited_by_level[l];
    nodes_pruned += other.nodes_pruned;
    node_bound_evaluations += other.node_bound_evaluations;
    lb_evaluations += other.lb_evaluations;
    exact_evaluations += other.exact_evaluations;
    entries_pruned_leaf += other.entries_pruned_leaf;
    entries_pruned_node += other.entries_pruned_node;
    lb_tightness_sum += other.lb_tightness_sum;
    lb_tightness_count += other.lb_tightness_count;
    cascade_stage = std::max(cascade_stage, other.cascade_stage);
  }

  /// Records one expanded node (used by the tree layer).
  void CountNodeVisit(size_t level, bool leaf) {
    if (leaf) {
      ++nodes_visited_leaf;
    } else {
      ++nodes_visited_internal;
    }
    ++nodes_visited_by_level[std::min(level, kMaxLevels - 1)];
  }

  friend bool operator==(const SearchCounters& a, const SearchCounters& b) {
    for (size_t l = 0; l < kMaxLevels; ++l)
      if (a.nodes_visited_by_level[l] != b.nodes_visited_by_level[l])
        return false;
    return a.nodes_visited_internal == b.nodes_visited_internal &&
           a.nodes_visited_leaf == b.nodes_visited_leaf &&
           a.nodes_pruned == b.nodes_pruned &&
           a.node_bound_evaluations == b.node_bound_evaluations &&
           a.lb_evaluations == b.lb_evaluations &&
           a.exact_evaluations == b.exact_evaluations &&
           a.entries_pruned_leaf == b.entries_pruned_leaf &&
           a.entries_pruned_node == b.entries_pruned_node &&
           a.lb_tightness_sum == b.lb_tightness_sum &&
           a.lb_tightness_count == b.lb_tightness_count &&
           a.cascade_stage == b.cascade_stage;
  }
};

}  // namespace sapla

#endif  // SAPLA_OBS_COUNTERS_H_
