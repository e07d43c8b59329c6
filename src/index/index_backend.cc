#include "index/index_backend.h"

#include <algorithm>

#include "distance/kernels.h"
#include "index/dbch_tree.h"
#include "index/feature_map.h"
#include "index/rtree.h"

namespace sapla {
namespace {

// R-tree adapter: series ids are mapped to per-method feature boxes
// (APCA raw-range MBRs, PLA coefficient boxes, CHEBY clamp) and queries
// prune with the mapper's MINDIST.
class RTreeBackend : public IndexBackend {
 public:
  explicit RTreeBackend(const IndexBackendContext& ctx)
      : ctx_(ctx),
        mapper_(ctx.method, ctx.m, ctx.dataset->length()),
        tree_(mapper_.dims(),
              RTree::Options{ctx.options.min_fill, ctx.options.max_fill}) {}

  std::string name() const override { return "rtree"; }

  void Insert(size_t id) override {
    StoreReadPin pin;  // keeps a cold store's frame alive through MapBox
    const FeatureMapper::Box box =
        mapper_.MapBox(ctx_.rep_view(id, &pin), ctx_.dataset->series[id].values);
    tree_.InsertBox(box.lo, box.hi, id);
  }

  void BestFirstSearch(const std::vector<double>& query_raw,
                       const RepView& query_rep, const VisitFn& visit,
                       SearchCounters* counters) const override {
    // Over a quantized corpus MINDIST lower-bounds the *quantized* leaf
    // bound, which may exceed the true one by up to the store's recorded
    // slack — loosen node bounds by that much so pruning stays sound.
    const double slack = ctx_.max_lb_slack();
    tree_.BestFirstSearch(
        [&](const std::vector<double>& lo, const std::vector<double>& hi) {
          const double d = mapper_.MinDist(query_raw, query_rep, lo, hi);
          return slack > 0.0 ? std::max(0.0, d - slack) : d;
        },
        visit, counters);
  }

  TreeStats ComputeStats() const override { return tree_.ComputeStats(); }

  Result<std::string> SerializeTree() const override {
    return tree_.Serialize();
  }

  Status RestoreTree(const std::string& bytes) override {
    return tree_.Restore(bytes, ctx_.dataset->size());
  }

 private:
  IndexBackendContext ctx_;
  FeatureMapper mapper_;
  RTree tree_;
};

// DBCH-tree adapter: the tree stores bare ids and measures everything with
// the method's lower-bounding distance over stored representation views.
class DbchBackend : public IndexBackend {
 public:
  explicit DbchBackend(const IndexBackendContext& ctx)
      : ctx_(ctx),
        tree_(
            [this](size_t a, size_t b) {
              // Build-time only (single-threaded Insert), so one scratch
              // serves the whole build.
              // The pair distance deliberately stays UNADJUSTED by any
              // quantization slack: it defines center/radius geometry in
              // the quantized metric space, and the query-side closure
              // below absorbs the whole slack once.
              StoreReadPin pa, pb;
              return LowerBoundDistanceView(ctx_.rep_view(a, &pa),
                                            ctx_.rep_view(b, &pb),
                                            &build_scratch_);
            },
            // SAX MINDIST violates the triangle inequality, so under sound
            // bounds its node-level pruning must stay off (dbch_tree.h).
            DbchTree::Options{ctx.options.min_fill, ctx.options.max_fill,
                              ctx.options.dbch_sound_bounds,
                              /*metric_pair_dist=*/ctx.method !=
                                  Method::kSax}) {}

  std::string name() const override { return "dbch"; }

  void Insert(size_t id) override { tree_.Insert(id); }

  void BestFirstSearch(const std::vector<double>& /*query_raw*/,
                       const RepView& query_rep, const VisitFn& visit,
                       SearchCounters* counters) const override {
    DistanceScratch scratch;  // per-query, lives on this caller's stack
    // Node bounds derive from d(query, center) - radius, both measured in
    // the quantized metric. The quantized query-center distance can
    // overstate the true leaf lower bound by at most the store's slack
    // (the build radii are consistent quantized-space measurements and
    // need no adjustment), so subtracting it here keeps pruning sound.
    const double slack = ctx_.max_lb_slack();
    // One pin for the whole traversal: a cold store keeps the last decoded
    // frame between hull endpoints instead of re-pinning per call.
    StoreReadPin pin;
    tree_.BestFirstSearch(
        [&](size_t id) {
          const double d =
              LowerBoundDistanceView(query_rep, ctx_.rep_view(id, &pin), &scratch);
          return slack > 0.0 ? std::max(0.0, d - slack) : d;
        },
        visit, counters);
  }

  TreeStats ComputeStats() const override { return tree_.ComputeStats(); }

  Result<std::string> SerializeTree() const override {
    return tree_.Serialize();
  }

  Status RestoreTree(const std::string& bytes) override {
    return tree_.Restore(bytes, ctx_.dataset->size());
  }

 private:
  IndexBackendContext ctx_;
  DistanceScratch build_scratch_;
  DbchTree tree_;
};

}  // namespace

std::string IndexKindName(IndexKind kind) {
  return kind == IndexKind::kRTree ? "rtree" : "dbch";
}

std::unique_ptr<IndexBackend> MakeIndexBackend(IndexKind kind,
                                               const IndexBackendContext& ctx) {
  switch (kind) {
    case IndexKind::kRTree:
      return std::make_unique<RTreeBackend>(ctx);
    case IndexKind::kDbchTree:
      return std::make_unique<DbchBackend>(ctx);
  }
  return nullptr;
}

}  // namespace sapla
