// RepresentationStore / RepView: converter losslessness, the randomized
// segment-geometry property test, and the store as the index's corpus.

#include "reduction/representation_store.h"

#include <gtest/gtest.h>

#include "core/sapla.h"
#include "reduction/representation.h"
#include "search/knn.h"
#include "ts/synthetic_archive.h"
#include "util/rng.h"

namespace sapla {
namespace {

Dataset SmallDataset() {
  SyntheticOptions opt;
  opt.length = 128;
  opt.num_series = 8;
  return MakeSyntheticDataset(3, opt);
}

// A representation with random strictly-increasing endpoints over [0, n)
// and random line coefficients — segment geometry only, no fitting.
Representation RandomSegmentation(Rng& rng, size_t n) {
  Representation rep;
  rep.method = Method::kSapla;
  rep.n = n;
  size_t r = 0;
  while (true) {
    r += 1 + rng.UniformInt(n / 4 + 1);
    if (r >= n - 1) break;
    rep.segments.push_back(
        {rng.Uniform() * 4.0 - 2.0, rng.Uniform() * 10.0 - 5.0, r});
  }
  rep.segments.push_back(
      {rng.Uniform() * 4.0 - 2.0, rng.Uniform() * 10.0 - 5.0,
       n - 1});
  return rep;
}

void ExpectSameGeometry(const Representation& rep, const RepView& view) {
  ASSERT_EQ(view.num_segments(), rep.segments.size());
  EXPECT_EQ(view.method(), rep.method);
  EXPECT_EQ(view.n(), rep.n);
  EXPECT_EQ(view.alphabet(), rep.alphabet);
  for (size_t i = 0; i < rep.segments.size(); ++i) {
    EXPECT_EQ(view.seg_a(i), rep.segments[i].a) << "segment " << i;
    EXPECT_EQ(view.seg_b(i), rep.segments[i].b) << "segment " << i;
    EXPECT_EQ(view.seg_r(i), rep.segments[i].r) << "segment " << i;
    EXPECT_EQ(view.segment_start(i), rep.segment_start(i)) << "segment " << i;
    EXPECT_EQ(view.segment_length(i), rep.segment_length(i)) << "segment " << i;
  }
}

TEST(RepView, MatchesRepresentationGeometryOnRandomSegmentations) {
  // Property test: for randomized segmentations, the store-backed view and
  // the Representation must agree on every derived quantity (start /
  // length / fields), for every segment.
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng.UniformInt(300);
    const Representation rep = RandomSegmentation(rng, n);
    RepresentationStore store;
    const size_t id = store.Append(rep);
    ExpectSameGeometry(rep, store.view(id));
  }
}

TEST(RepView, SegmentLengthsSumToN) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 2 + rng.UniformInt(500);
    const Representation rep = RandomSegmentation(rng, n);
    RepresentationStore store;
    const RepView view = store.view(store.Append(rep));
    size_t total = 0;
    for (size_t i = 0; i < view.num_segments(); ++i) {
      EXPECT_EQ(view.segment_start(i) + view.segment_length(i) - 1,
                view.seg_r(i));
      total += view.segment_length(i);
    }
    EXPECT_EQ(total, n);
  }
}

TEST(RepresentationStore, AppendToRepresentationIsLossless) {
  const Dataset ds = SmallDataset();
  for (const Method method : AllMethods()) {
    RepresentationStore store;
    std::vector<Representation> originals;
    const auto reducer = MakeReducer(method);
    for (const TimeSeries& ts : ds.series) {
      originals.push_back(reducer->Reduce(ts.values, 12));
      store.Append(originals.back());
    }
    ASSERT_EQ(store.size(), ds.size());
    EXPECT_EQ(store.method(), method);
    EXPECT_EQ(store.series_length(), ds.length());
    for (size_t i = 0; i < store.size(); ++i) {
      const Representation back = store.ToRepresentation(i);
      EXPECT_EQ(back.method, originals[i].method);
      EXPECT_EQ(back.n, originals[i].n);
      EXPECT_EQ(back.alphabet, originals[i].alphabet);
      ASSERT_EQ(back.segments.size(), originals[i].segments.size());
      for (size_t s = 0; s < back.segments.size(); ++s) {
        EXPECT_EQ(back.segments[s].a, originals[i].segments[s].a);
        EXPECT_EQ(back.segments[s].b, originals[i].segments[s].b);
        EXPECT_EQ(back.segments[s].r, originals[i].segments[s].r);
      }
      EXPECT_EQ(back.coeffs, originals[i].coeffs);
      EXPECT_EQ(back.symbols, originals[i].symbols);
    }
  }
}

TEST(RepresentationStore, ReduceIntoMatchesReducePlusAppend) {
  const Dataset ds = SmallDataset();
  for (const Method method : AllMethods()) {
    const auto reducer = MakeReducer(method);
    RepresentationStore via_reduce_into, via_append;
    for (const TimeSeries& ts : ds.series) {
      const size_t id = reducer->ReduceInto(ts.values, 12, &via_reduce_into);
      EXPECT_EQ(id, via_append.Append(reducer->Reduce(ts.values, 12)));
    }
    EXPECT_TRUE(via_reduce_into == via_append)
        << "method " << MethodName(method);
  }
}

TEST(RepresentationStore, ResetClearsContentAndChangesId) {
  const Dataset ds = SmallDataset();
  RepresentationStore store;
  store.Append(SaplaReducer().Reduce(ds.series[0].values, 12));
  const uint64_t id_before = store.id();
  EXPECT_EQ(store.size(), 1u);
  store.Reset();
  EXPECT_TRUE(store.empty());
  EXPECT_NE(store.id(), id_before);

  RepresentationStore other;
  EXPECT_NE(store.id(), other.id());
}

TEST(RepresentationStore, OffsetTablesDescribeColumnSlices) {
  const Dataset ds = SmallDataset();
  RepresentationStore store;
  std::vector<Representation> reps;
  for (const TimeSeries& ts : ds.series) {
    reps.push_back(SaplaReducer().Reduce(ts.values, 12));
    store.Append(reps.back());
  }
  ASSERT_EQ(store.seg_offsets().size(), store.size() + 1);
  EXPECT_EQ(store.seg_offsets().front(), 0u);
  EXPECT_EQ(store.seg_offsets().back(), store.a_column().size());
  EXPECT_EQ(store.a_column().size(), store.b_column().size());
  EXPECT_EQ(store.a_column().size(), store.r_column().size());
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.seg_offsets()[i + 1] - store.seg_offsets()[i],
              reps[i].segments.size());
  }
}

TEST(RepresentationStore, FromColumnsRejectsStructuralCorruption) {
  const Dataset ds = SmallDataset();
  RepresentationStore store;
  for (const TimeSeries& ts : ds.series)
    store.Append(SaplaReducer().Reduce(ts.values, 12));

  auto rebuild = [&](auto mutate) {
    auto seg_off = store.seg_offsets();
    auto coeff_off = store.coeff_offsets();
    auto sym_off = store.symbol_offsets();
    auto a = store.a_column();
    auto b = store.b_column();
    auto r = store.r_column();
    auto coeffs = store.coeff_column();
    auto symbols = store.symbol_column();
    mutate(seg_off, a, r);
    return RepresentationStore::FromColumns(
        store.method(), store.series_length(), store.alphabet(),
        std::move(seg_off), std::move(coeff_off), std::move(sym_off),
        std::move(a), std::move(b), std::move(r), std::move(coeffs),
        std::move(symbols));
  };

  // Unmutated columns reproduce the store exactly.
  const auto same = rebuild([](auto&, auto&, auto&) {});
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same == store);

  // Decreasing offset table.
  EXPECT_FALSE(rebuild([](auto& seg_off, auto&, auto&) {
                 seg_off[1] = seg_off.back() + 1;
               }).ok());
  // Offsets not covering the columns.
  EXPECT_FALSE(
      rebuild([](auto& seg_off, auto&, auto&) { seg_off.back() -= 1; }).ok());
  // Non-increasing endpoints within a series.
  EXPECT_FALSE(rebuild([](auto&, auto&, auto& r) {
                 if (r.size() > 1) r[1] = r[0];
               }).ok());
  // Last endpoint not covering the series.
  EXPECT_FALSE(
      rebuild([](auto&, auto&, auto& r) { r.back() += 1; }).ok());
  // Mismatched a/r column sizes.
  EXPECT_FALSE(rebuild([](auto&, auto& a, auto&) { a.pop_back(); }).ok());
}

TEST(RepresentationStore, AppendReturnsSequentialIds) {
  const Dataset ds = SmallDataset();
  RepresentationStore store;
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(store.Append(SaplaReducer().Reduce(ds.series[i].values, 12)), i);
  }
}

// The columnar store is the index's corpus: after Build it holds one entry
// per series.
TEST(StoreCorpus, StoreHoldsEveryReduction) {
  const Dataset ds = SmallDataset();
  SimilarityIndex index(Method::kSapla, 12, IndexKind::kDbchTree);
  ASSERT_TRUE(index.Build(ds).ok());
  EXPECT_EQ(index.store().size(), ds.size());
  EXPECT_EQ(index.store().method(), Method::kSapla);
  EXPECT_EQ(index.store().series_length(), ds.length());
  EXPECT_EQ(index.corpus_id(), index.store().id());
}

// Rebuilds must change the corpus id (the serve result cache keys on it).
TEST(StoreCorpus, RebuildChangesCorpusId) {
  const Dataset ds = SmallDataset();
  SimilarityIndex index(Method::kSapla, 12, IndexKind::kRTree);
  ASSERT_TRUE(index.Build(ds).ok());
  const uint64_t first = index.corpus_id();
  ASSERT_TRUE(index.Build(ds).ok());
  EXPECT_NE(index.corpus_id(), first);
}

}  // namespace
}  // namespace sapla
