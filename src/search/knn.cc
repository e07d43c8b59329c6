#include "search/knn.h"

#include <chrono>
#include <cmath>

#include "distance/kernels.h"
#include "obs/trace.h"
#include "search/filter_refine.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace sapla {

KnnResult LinearScanKnn(const Dataset& dataset,
                        const std::vector<double>& query, size_t k) {
  SAPLA_TRACE_SPAN("knn/linear_scan");
  KnnResult result;
  if (k == 0) return result;
  TopK top(k);
  for (size_t i = 0; i < dataset.size(); ++i)
    top.Offer(EuclideanDistance(query, dataset.series[i].values), i);
  result.neighbors = top.Sorted();
  result.num_measured = dataset.size();
  result.counters.exact_evaluations = dataset.size();
  result.counters.cascade_stage = CascadeStage::kExact;
  return result;
}

SimilarityIndex::SimilarityIndex(Method method, size_t m, IndexKind kind,
                                 const Options& options)
    : method_(method), m_(m), kind_(kind), options_(options) {
  reducer_ = MakeReducer(method);
}

SimilarityIndex::~SimilarityIndex() = default;

Status SimilarityIndex::Build(const Dataset& dataset, BuildInfo* info) {
  SAPLA_TRACE_SPAN("index/build");
  SAPLA_FAULT_POINT("index/build");
  if (dataset.size() == 0)
    return Status::InvalidArgument("empty dataset");
  if (dataset.length() < 2)
    return Status::InvalidArgument("series shorter than 2 points");
  for (const TimeSeries& ts : dataset.series) {
    if (ts.size() != dataset.length())
      return Status::InvalidArgument("dataset series have unequal lengths");
    for (const double v : ts.values) {
      if (!std::isfinite(v))
        return Status::InvalidArgument(
            "dataset contains non-finite values; clean or impute first");
    }
  }
  dataset_ = &dataset;

  // Per-series reduction is embarrassingly parallel: Reducer::Reduce is
  // const and stateless, and each iteration writes only its own slot.
  CpuTimer reduce_cpu;
  WallTimer reduce_wall;
  std::vector<Representation> reps(dataset.size());
  ParallelFor(0, dataset.size(), [&](size_t i) {
    reps[i] = reducer_->Reduce(dataset.series[i].values, m_);
  });
  // Transpose the parallel-reduced batch into the columnar store (Append is
  // order-preserving, so store ids == series ids); the staging copies die
  // with this scope.
  store_.Reset();
  for (const Representation& rep : reps) store_.Append(rep);
  reps = {};
  const double reduce_cpu_s = reduce_cpu.Seconds();
  const double reduce_wall_s = reduce_wall.Seconds();

  CpuTimer insert_timer;
  backend_ =
      MakeIndexBackend(kind_, {method_, m_, dataset_, &store_, options_});
  for (size_t i = 0; i < dataset.size(); ++i) backend_->Insert(i);
  const double insert_s = insert_timer.Seconds();

  if (info != nullptr) {
    info->reduce_cpu_seconds = reduce_cpu_s;
    info->reduce_wall_seconds = reduce_wall_s;
    info->insert_cpu_seconds = insert_s;
    info->stats = stats();
  }
  return Status::OK();
}

Status SimilarityIndex::RestoreFromStore(const Dataset& dataset,
                                         RepresentationStore store,
                                         const std::string& tree_bytes) {
  SAPLA_TRACE_SPAN("index/restore");
  if (dataset.size() == 0) return Status::InvalidArgument("empty dataset");
  if (store.method() != method_)
    return Status::InvalidArgument("store method does not match the index");
  if (store.size() != dataset.size())
    return Status::InvalidArgument("store size does not match the dataset");
  if (store.series_length() != dataset.length())
    return Status::InvalidArgument(
        "store series length does not match the dataset");
  dataset_ = &dataset;
  store_ = std::move(store);
  backend_ =
      MakeIndexBackend(kind_, {method_, m_, dataset_, &store_, options_});
  if (!tree_bytes.empty()) {
    const Status restored = backend_->RestoreTree(tree_bytes);
    if (!restored.ok()) return restored;
  } else {
    // Re-insert serially in id order — Build's exact procedure, so the tree
    // shape (and hence every traversal counter) matches a fresh Build.
    for (size_t i = 0; i < dataset.size(); ++i) backend_->Insert(i);
  }
  if (stats().entries != dataset.size())
    return Status::Internal("restored tree entry count mismatch");
  return Status::OK();
}

TreeStats SimilarityIndex::stats() const {
  return backend_ ? backend_->ComputeStats() : TreeStats{};
}

KnnResult SimilarityIndex::Search(const std::vector<double>& query,
                                  const QuerySpec& spec,
                                  obs::QueryExplain* explain) const {
  SAPLA_TRACE_SPAN(spec.lower_bound
                       ? (spec.knn() ? "knn/lower_bound" : "range/lower_bound")
                       : (spec.knn() ? "knn/query" : "range/query"));
  SAPLA_DCHECK(dataset_ != nullptr);
  SAPLA_DCHECK(query.size() == dataset_->length());
  const auto t0 = std::chrono::steady_clock::now();
  KnnResult result;
  if (!spec.knn() || spec.k > 0) {
    const size_t num = dataset_->size();
    FilterRefine step(*reducer_, m_, query, spec);
    if (spec.lower_bound) {
      // Full-corpus scan: the batched kernel streams the store's columns
      // (or decodes frame-by-frame for a cold store).
      std::vector<double> lbs(num);
      FilterDistanceBatch(step.fitter(), step.query_rep(), store_, nullptr,
                          num, lbs.data(), step.scratch());
      const bool has_slack = store_.quantized();
      for (size_t id = 0; id < num; ++id) {
        const double lb =
            has_slack ? std::max(0.0, lbs[id] - store_.lb_slack(id)) : lbs[id];
        step.Admit(lb, dataset_->series[id].values, id);
      }
    } else {
      StoreReadPin pin;  // keeps the current cold frame decoded across visits
      const auto visit = [&](size_t id, double /*bound*/) {
        step.Visit(store_, id, &pin, dataset_->series[id].values, id);
        return step.Bound();
      };
      SAPLA_TRACE_SPAN(spec.knn() ? "knn/traverse" : "range/traverse");
      backend_->BestFirstSearch(query, step.query_rep(), visit,
                                step.counters());
    }
    result = step.Finish(num);
  }
  if (explain != nullptr) {
    const uint64_t dur_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    explain->trace_id = obs::CurrentTraceContext().trace_id;
    explain->total_us = dur_us;
    explain->approximate = result.approximate;
    explain->counters = result.counters;
    explain->stages.push_back({"search", dur_us});
    obs::ShardExplain part;
    part.part = "index";
    part.dur_us = dur_us;
    part.results = result.neighbors.size();
    part.counters = result.counters;
    explain->parts.push_back(std::move(part));
  }
  return result;
}

}  // namespace sapla
