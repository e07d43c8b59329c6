// Store-view search vs. the per-Representation oracle: a SimilarityIndex
// over its columnar RepresentationStore must answer every query
// bit-identically to a reference that drives the same tree traversal but
// filters each leaf entry with the per-pair Representation kernel
// (FilterDistance, distance/mindist.h) over independently reduced series —
// same neighbor ids and distances, same num_measured, equal SearchCounters
// — for every Method x IndexKind, serially and batched at 1/2/8 threads,
// for k-NN, range and both lower-bound-only answers.

#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "distance/mindist.h"
#include "geom/line_fit.h"
#include "search/knn.h"
#include "ts/synthetic_archive.h"

namespace sapla {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};
constexpr size_t kBudget = 12;

Dataset SmallDataset(size_t id = 17, size_t n = 128, size_t count = 60) {
  SyntheticOptions opt;
  opt.length = n;
  opt.num_series = count;
  return MakeSyntheticDataset(id, opt);
}

std::vector<std::vector<double>> SomeQueries(const Dataset& ds) {
  std::vector<std::vector<double>> queries;
  for (const size_t qi : {0u, 7u, 19u, 33u, 58u})
    queries.push_back(ds.series[qi].values);
  return queries;
}

void ExpectIdentical(const KnnResult& got, const KnnResult& want,
                     const std::string& label) {
  ASSERT_EQ(got.neighbors.size(), want.neighbors.size()) << label;
  for (size_t i = 0; i < got.neighbors.size(); ++i) {
    EXPECT_EQ(got.neighbors[i].second, want.neighbors[i].second)
        << label << " rank " << i;
    EXPECT_EQ(got.neighbors[i].first, want.neighbors[i].first)
        << label << " rank " << i;
  }
  EXPECT_EQ(got.num_measured, want.num_measured) << label;
  EXPECT_TRUE(got.counters == want.counters) << label;
}

struct ParityCase {
  Method method;
  IndexKind kind;
};

class ParitySweep : public ::testing::TestWithParam<ParityCase> {
 protected:
  void Build() {
    ds_ = SmallDataset();
    const auto [method, kind] = GetParam();
    index_ = std::make_unique<SimilarityIndex>(method, kBudget, kind);
    ASSERT_TRUE(index_->Build(ds_).ok()) << MethodName(method);
    reducer_ = MakeReducer(method);
    for (const TimeSeries& ts : ds_.series)
      reps_.push_back(reducer_->Reduce(ts.values, kBudget));
  }

  // The oracle answer: the index's own tree traversal for node bounds, and
  // the per-Representation FilterDistance for every leaf entry.
  KnnResult Reference(const std::vector<double>& q,
                      const QuerySpec& spec) const {
    const PrefixFitter fitter(q);
    const Representation qrep = reducer_->Reduce(q, kBudget);
    KnnResult r;
    SearchCounters& c = r.counters;
    std::set<std::pair<double, size_t>> found;
    const auto keep = [&](double dist, size_t id) {
      if (!spec.knn() && !(dist <= spec.radius)) return;
      found.emplace(dist, id);
      if (spec.knn() && found.size() > spec.k) found.erase(--found.end());
    };
    const auto bound = [&] {
      if (!spec.knn()) return spec.radius;
      return found.size() < spec.k ? std::numeric_limits<double>::infinity()
                                   : found.rbegin()->first;
    };
    if (spec.lower_bound) {
      for (size_t id = 0; id < ds_.size(); ++id) {
        ++c.lb_evaluations;
        keep(FilterDistance(fitter, qrep, reps_[id]), id);
      }
    } else {
      RepresentationStore query_store;
      reducer_->ReduceInto(q, kBudget, &query_store);
      index_->backend()->BestFirstSearch(
          q, query_store.view(0),
          [&](size_t id, double) {
            const double lb = FilterDistance(fitter, qrep, reps_[id]);
            ++c.lb_evaluations;
            if (lb <= bound()) {
              const double exact = EuclideanDistance(q, ds_.series[id].values);
              ++c.exact_evaluations;
              if (exact > 0.0) {
                c.lb_tightness_sum += lb / exact;
                ++c.lb_tightness_count;
              }
              keep(exact, id);
            } else {
              ++c.entries_pruned_leaf;
            }
            return bound();
          },
          &c);
    }
    c.entries_pruned_node = ds_.size() - c.lb_evaluations;
    c.cascade_stage = c.exact_evaluations > 0 ? CascadeStage::kExact
                      : c.lb_evaluations > 0  ? CascadeStage::kLeafFilter
                                              : CascadeStage::kNodePrune;
    r.num_measured = c.exact_evaluations;
    r.neighbors.assign(found.begin(), found.end());
    return r;
  }

  std::string Label(const char* op) const {
    return MethodName(GetParam().method) + " " + op;
  }

  Dataset ds_;
  std::unique_ptr<SimilarityIndex> index_;
  std::unique_ptr<Reducer> reducer_;
  std::vector<Representation> reps_;
};

// Warm restart re-inserts the stored corpus in id order: the same tree.
TEST_P(ParitySweep, TreesAreStructurallyIdentical) {
  Build();
  SimilarityIndex restored(GetParam().method, kBudget, GetParam().kind);
  ASSERT_TRUE(restored.RestoreFromStore(ds_, index_->store()).ok());
  const TreeStats a = index_->stats();
  const TreeStats b = restored.stats();
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.leaf_nodes, b.leaf_nodes);
  EXPECT_EQ(a.internal_nodes, b.internal_nodes);
}

TEST_P(ParitySweep, KnnIsBitIdentical) {
  Build();
  for (const std::vector<double>& q : SomeQueries(ds_))
    ExpectIdentical(index_->Knn(q, 6), Reference(q, QuerySpec::Knn(6)),
                    Label("knn"));
}

TEST_P(ParitySweep, KnnBatchIsBitIdenticalAtEveryThreadCount) {
  Build();
  const auto queries = SomeQueries(ds_);
  for (const size_t threads : kThreadCounts) {
    const std::vector<KnnResult> batch = index_->KnnBatch(queries, 6, threads);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q)
      ExpectIdentical(batch[q], Reference(queries[q], QuerySpec::Knn(6)),
                      Label("knn-batch") + " q" + std::to_string(q) +
                          " threads " + std::to_string(threads));
  }
}

TEST_P(ParitySweep, RangeSearchIsBitIdentical) {
  Build();
  for (const double radius : {4.0, 9.0, 100.0})
    for (const std::vector<double>& q : SomeQueries(ds_))
      ExpectIdentical(index_->RangeSearch(q, radius),
                      Reference(q, QuerySpec::Range(radius)), Label("range"));
}

TEST_P(ParitySweep, RangeSearchBatchIsBitIdenticalAtEveryThreadCount) {
  Build();
  const double radius = 9.0;
  const auto queries = SomeQueries(ds_);
  for (const size_t threads : kThreadCounts) {
    const std::vector<KnnResult> batch =
        index_->RangeSearchBatch(queries, radius, threads);
    for (size_t q = 0; q < queries.size(); ++q)
      ExpectIdentical(batch[q], Reference(queries[q], QuerySpec::Range(radius)),
                      Label("range-batch") + " q" + std::to_string(q) +
                          " threads " + std::to_string(threads));
  }
}

TEST_P(ParitySweep, LowerBoundPathsAreBitIdentical) {
  Build();
  for (const std::vector<double>& q : SomeQueries(ds_)) {
    ExpectIdentical(index_->KnnLowerBound(q, 6),
                    Reference(q, QuerySpec::Knn(6, true)), Label("knn-lb"));
    ExpectIdentical(index_->RangeSearchLowerBound(q, 9.0),
                    Reference(q, QuerySpec::Range(9.0, true)),
                    Label("range-lb"));
  }
}

std::vector<ParityCase> AllParityCases() {
  std::vector<ParityCase> cases;
  for (const Method method : AllMethods())
    for (const IndexKind kind : {IndexKind::kRTree, IndexKind::kDbchTree})
      cases.push_back({method, kind});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    MethodsTimesTrees, ParitySweep, ::testing::ValuesIn(AllParityCases()),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return MethodName(info.param.method) +
             (info.param.kind == IndexKind::kRTree ? "_RTree" : "_DbchTree");
    });

}  // namespace
}  // namespace sapla
