// Tests for per-query SearchCounters (obs/counters.h) as threaded through
// the index backends and search layer: the counter identities, cascade
// stages, the num_measured agreement, determinism between Knn and KnnBatch
// at several thread counts, and the serving-layer aggregate.

#include "obs/counters.h"

#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "search/knn.h"
#include "search/metrics.h"
#include "serve/service.h"
#include "ts/synthetic_archive.h"

namespace sapla {
namespace {

Dataset SmallDataset(size_t id = 3, size_t n = 128, size_t count = 60) {
  SyntheticOptions opt;
  opt.length = n;
  opt.num_series = count;
  return MakeSyntheticDataset(id, opt);
}

// The three identities every executed filter-and-refine query satisfies.
void ExpectIdentities(const SearchCounters& c, size_t num_measured,
                      size_t dataset_size) {
  EXPECT_EQ(c.exact_evaluations, num_measured);
  EXPECT_EQ(c.lb_evaluations, c.exact_evaluations + c.entries_pruned_leaf);
  EXPECT_EQ(c.lb_evaluations + c.entries_pruned_node, dataset_size);
}

TEST(SearchCounters, KnnFillsCountersOnBothBackends) {
  const Dataset ds = SmallDataset();
  for (const IndexKind kind : {IndexKind::kRTree, IndexKind::kDbchTree}) {
    SimilarityIndex index(Method::kSapla, 12, kind);
    ASSERT_TRUE(index.Build(ds).ok());
    const KnnResult r = index.Knn(ds.series[5].values, 8);
    const SearchCounters& c = r.counters;
    ExpectIdentities(c, r.num_measured, ds.size());
    // A k-NN query that returned neighbors must have measured something
    // and reached the exact stage through at least one leaf.
    EXPECT_GT(c.exact_evaluations, 0u);
    EXPECT_GE(c.nodes_visited_leaf, 1u);
    EXPECT_EQ(c.cascade_stage, CascadeStage::kExact);
    EXPECT_EQ(c.nodes_visited(),
              c.nodes_visited_internal + c.nodes_visited_leaf);
    // Per-level counts sum to the total and start at the root.
    uint64_t by_level = 0;
    for (size_t l = 0; l < SearchCounters::kMaxLevels; ++l)
      by_level += c.nodes_visited_by_level[l];
    EXPECT_EQ(by_level, c.nodes_visited());
    EXPECT_EQ(c.nodes_visited_by_level[0], 1u);  // the root, exactly once
    // rho from the counters matches the historical metric.
    EXPECT_EQ(c.PruningPower(ds.size()), PruningPower(r, ds.size()));
  }
}

TEST(SearchCounters, RangeSearchFillsCounters) {
  const Dataset ds = SmallDataset();
  for (const IndexKind kind : {IndexKind::kRTree, IndexKind::kDbchTree}) {
    SimilarityIndex index(Method::kSapla, 12, kind);
    ASSERT_TRUE(index.Build(ds).ok());
    // A generous radius so the query returns something.
    const KnnResult probe = index.Knn(ds.series[5].values, 4);
    const double radius = probe.neighbors.back().first * 1.01;
    const KnnResult r = index.RangeSearch(ds.series[5].values, radius);
    ExpectIdentities(r.counters, r.num_measured, ds.size());
    EXPECT_EQ(r.counters.cascade_stage, CascadeStage::kExact);
  }
}

TEST(SearchCounters, LinearScanAndLowerBoundPaths) {
  const Dataset ds = SmallDataset(4, 64, 20);
  const KnnResult scan = LinearScanKnn(ds, ds.series[0].values, 3);
  EXPECT_EQ(scan.counters.exact_evaluations, ds.size());
  EXPECT_EQ(scan.counters.lb_evaluations, 0u);
  EXPECT_EQ(scan.counters.cascade_stage, CascadeStage::kExact);

  SimilarityIndex index(Method::kSapla, 8, IndexKind::kDbchTree);
  ASSERT_TRUE(index.Build(ds).ok());
  const KnnResult lb = index.KnnLowerBound(ds.series[0].values, 3);
  EXPECT_EQ(lb.counters.lb_evaluations, ds.size());
  EXPECT_EQ(lb.counters.exact_evaluations, 0u);
  EXPECT_EQ(lb.counters.cascade_stage, CascadeStage::kLeafFilter);
  EXPECT_EQ(lb.num_measured, 0u);

  const KnnResult rlb = index.RangeSearchLowerBound(ds.series[0].values, 5.0);
  EXPECT_EQ(rlb.counters.lb_evaluations, ds.size());
  EXPECT_EQ(rlb.counters.cascade_stage, CascadeStage::kLeafFilter);
}

TEST(SearchCounters, KZeroLeavesCountersEmpty) {
  const Dataset ds = SmallDataset(4, 64, 8);
  SimilarityIndex index(Method::kSapla, 8, IndexKind::kRTree);
  ASSERT_TRUE(index.Build(ds).ok());
  const KnnResult r = index.Knn(ds.series[0].values, 0);
  EXPECT_EQ(r.counters, SearchCounters{});
  EXPECT_EQ(r.counters.cascade_stage, CascadeStage::kNone);
}

// The tentpole determinism contract: per-query counters are bit-identical
// between serial Knn and KnnBatch at 1, 2 and 8 threads, for every method
// and both backends. Each query's traversal touches no shared mutable
// state, so thread count must be unobservable in the counters.
TEST(SearchCounters, DeterministicAcrossThreadCounts) {
  const Dataset ds = SmallDataset(7, 96, 50);
  std::vector<std::vector<double>> queries;
  for (size_t q = 0; q < 6; ++q) queries.push_back(ds.series[q * 7].values);

  for (const Method method : {Method::kSapla, Method::kApca, Method::kPla}) {
    for (const IndexKind kind : {IndexKind::kRTree, IndexKind::kDbchTree}) {
      SimilarityIndex index(method, 12, kind);
      ASSERT_TRUE(index.Build(ds).ok());
      std::vector<KnnResult> serial;
      for (const auto& q : queries) serial.push_back(index.Knn(q, 5));
      for (const size_t threads : {1u, 2u, 8u}) {
        const std::vector<KnnResult> batch =
            index.KnnBatch(queries, 5, threads);
        ASSERT_EQ(batch.size(), serial.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(batch[i].counters, serial[i].counters)
              << MethodName(method) << "/" << IndexKindName(kind)
              << " query " << i << " threads " << threads;
          EXPECT_EQ(batch[i].num_measured, serial[i].num_measured);
        }
      }
    }
  }
}

TEST(SearchCounters, AddAggregatesAndTakesMaxStage) {
  SearchCounters a, b;
  a.lb_evaluations = 10;
  a.exact_evaluations = 4;
  a.entries_pruned_leaf = 6;
  a.cascade_stage = CascadeStage::kLeafFilter;
  a.nodes_visited_by_level[0] = 1;
  b.lb_evaluations = 5;
  b.exact_evaluations = 5;
  b.cascade_stage = CascadeStage::kExact;
  b.nodes_visited_by_level[0] = 1;
  b.nodes_visited_by_level[1] = 2;
  a.Add(b);
  EXPECT_EQ(a.lb_evaluations, 15u);
  EXPECT_EQ(a.exact_evaluations, 9u);
  EXPECT_EQ(a.cascade_stage, CascadeStage::kExact);
  EXPECT_EQ(a.nodes_visited_by_level[0], 2u);
  EXPECT_EQ(a.nodes_visited_by_level[1], 2u);
}

TEST(SearchCounters, ServiceAggregatesExecutedQueries) {
  const Dataset ds = SmallDataset();
  SimilarityIndex index(Method::kSapla, 12, IndexKind::kDbchTree);
  ASSERT_TRUE(index.Build(ds).ok());

  QueryService service(index);
  constexpr size_t kRequests = 5;
  for (size_t i = 0; i < kRequests; ++i) {
    const ServeResponse response = service.Knn(ds.series[i].values, 4);
    ASSERT_TRUE(response.status.ok());
  }
  service.Stop();

  const ServeMetricsSnapshot snap = service.MetricsSnapshot();
  EXPECT_EQ(snap.search.queries, kRequests);
  EXPECT_EQ(snap.search.candidates, kRequests * ds.size());
  EXPECT_GT(snap.search.exact_evaluations, 0u);
  EXPECT_EQ(snap.search.lb_evaluations,
            snap.search.exact_evaluations + snap.search.entries_pruned_leaf);
  EXPECT_EQ(snap.search.lb_evaluations + snap.search.entries_pruned_node,
            snap.search.candidates);
  EXPECT_GT(snap.search.PruningPower(), 0.0);
  EXPECT_LE(snap.search.PruningPower(), 1.0);
  // Tightness is a mean of lb/exact ratios, each in [0, 1].
  EXPECT_GE(snap.search.MeanTightness(), 0.0);
  EXPECT_LE(snap.search.MeanTightness(), 1.0);
  // 60 entries at fill 5 make a multi-level tree, so node bounds ran; both
  // exporters carry the aggregate.
  EXPECT_GT(snap.search.node_bound_evaluations, 0u);
  const std::string total =
      std::to_string(snap.search.node_bound_evaluations);
  EXPECT_NE(MetricsToJson(snap).find("\"node_bound_evaluations\": " + total),
            std::string::npos);
  EXPECT_NE(MetricsToPrometheus(service.metrics())
                .find("sapla_search_node_bound_evaluations_total " + total),
            std::string::npos);
}

TEST(SearchCounters, CountNodeVisitClampsDeepLevels) {
  SearchCounters c;
  c.CountNodeVisit(SearchCounters::kMaxLevels + 10, /*leaf=*/true);
  EXPECT_EQ(c.nodes_visited_by_level[SearchCounters::kMaxLevels - 1], 1u);
  EXPECT_EQ(c.nodes_visited_leaf, 1u);
}

}  // namespace
}  // namespace sapla
