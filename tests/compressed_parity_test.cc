// Compressed-corpus pruning parity: an index serving a QUANTIZED store
// (directly, via a lossy-codec snapshot, or cold/mmap-backed) must return
// id- and distance-identical kNN and range answers to the full-precision
// index, for every Method x IndexKind, serially and batched at 1/2/8
// threads. This is the GEMINI no-false-dismissal contract under
// compression: the search layer subtracts the stored lower-bound slack
// before pruning (so bounds only loosen) and exact distances are always
// refined from the raw series — pruning counters may move, answers may
// not.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sapla.h"
#include "reduction/column_codec.h"
#include "reduction/representation_store.h"
#include "search/knn.h"
#include "search/snapshot.h"
#include "ts/synthetic_archive.h"
#include "util/rng.h"
#include "test_tmpdir.h"

namespace sapla {
namespace {

constexpr size_t kBudget = 12;
constexpr size_t kK = 5;
constexpr double kRadius = 8.0;
constexpr size_t kThreadCounts[] = {1, 2, 8};

Dataset SmallDataset() {
  SyntheticOptions opt;
  opt.length = 128;
  opt.num_series = 70;
  return MakeSyntheticDataset(31, opt);
}

std::vector<std::vector<double>> SomeQueries(const Dataset& ds) {
  std::vector<std::vector<double>> queries;
  Rng rng(606);
  for (const size_t qi : {2u, 11u, 29u, 44u, 63u}) {
    std::vector<double> q = ds.series[qi].values;
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    queries.push_back(std::move(q));
  }
  return queries;
}

StoreCodecOptions CoarseCodec() {
  StoreCodecOptions codec;
  codec.ab_step = 2e-2;  // coarse enough to move real pruning decisions
  codec.coeff_step = 2e-2;
  return codec;
}

void ExpectSameAnswer(const KnnResult& got, const KnnResult& want,
                      const std::string& label) {
  ASSERT_EQ(got.neighbors.size(), want.neighbors.size()) << label;
  for (size_t i = 0; i < want.neighbors.size(); ++i) {
    EXPECT_EQ(got.neighbors[i].second, want.neighbors[i].second)
        << label << " rank " << i;
    // Bitwise, not approximate: refinement recomputes the true distance
    // from the raw series on both sides.
    EXPECT_EQ(got.neighbors[i].first, want.neighbors[i].first)
        << label << " rank " << i;
  }
}

struct CompressedCase {
  Method method;
  IndexKind kind;
};

std::string CaseName(const ::testing::TestParamInfo<CompressedCase>& info) {
  return MethodName(info.param.method) + std::string("_") +
         IndexKindName(info.param.kind);
}

class CompressedSweep : public ::testing::TestWithParam<CompressedCase> {
 protected:
  void SetUp() override {
    ds_ = SmallDataset();
    queries_ = SomeQueries(ds_);
    // dbch_sound_bounds keeps the DBCH traversal exact, which the
    // id-identity assertions below require.
    options_.dbch_sound_bounds = true;

    raw_ = std::make_unique<SimilarityIndex>(
        GetParam().method, kBudget, GetParam().kind, options_);
    ASSERT_TRUE(raw_->Build(ds_).ok());

    auto quantized_store = QuantizeStore(raw_->store(), CoarseCodec());
    ASSERT_TRUE(quantized_store.ok())
        << quantized_store.status().ToString();
    quantized_ = std::make_unique<SimilarityIndex>(
        GetParam().method, kBudget, GetParam().kind, options_);
    ASSERT_TRUE(
        quantized_
            ->RestoreFromStore(ds_, std::move(quantized_store).ValueOrDie())
            .ok());
    ASSERT_TRUE(quantized_->store().quantized());
  }

  Dataset ds_;
  std::vector<std::vector<double>> queries_;
  SimilarityIndex::Options options_;
  std::unique_ptr<SimilarityIndex> raw_;
  std::unique_ptr<SimilarityIndex> quantized_;
};

TEST_P(CompressedSweep, KnnAnswersAreIdentical) {
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const KnnResult want = raw_->Knn(queries_[qi], kK);
    const KnnResult got = quantized_->Knn(queries_[qi], kK);
    ExpectSameAnswer(got, want, "knn query " + std::to_string(qi));
    // Pruning-counter sanity: the quantized filter still prunes something
    // and never measures more than the corpus.
    EXPECT_GE(got.num_measured, kK);
    EXPECT_LE(got.num_measured, ds_.size());
  }
}

TEST_P(CompressedSweep, RangeAnswersAreIdenticalAndPruningOnlyLoosens) {
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const KnnResult want = raw_->RangeSearch(queries_[qi], kRadius);
    const KnnResult got = quantized_->RangeSearch(queries_[qi], kRadius);
    ExpectSameAnswer(got, want, "range query " + std::to_string(qi));
    // Slack subtraction can only loosen the filter, so the compressed
    // index refines a superset of the full-precision candidates.
    EXPECT_GE(got.num_measured, want.num_measured)
        << "range query " << qi;
  }
}

TEST_P(CompressedSweep, BatchedAnswersAreIdenticalAtEveryThreadCount) {
  for (const size_t threads : kThreadCounts) {
    SimilarityIndex::BatchOptions batch;
    batch.num_threads = threads;
    const std::vector<KnnResult> want = raw_->KnnBatch(queries_, kK, batch);
    const std::vector<KnnResult> got =
        quantized_->KnnBatch(queries_, kK, batch);
    ASSERT_EQ(got.size(), want.size());
    for (size_t qi = 0; qi < queries_.size(); ++qi)
      ExpectSameAnswer(got[qi], want[qi],
                       std::to_string(threads) + " threads, query " +
                           std::to_string(qi));
    const std::vector<KnnResult> ranges_want =
        raw_->RangeSearchBatch(queries_, kRadius, batch);
    const std::vector<KnnResult> ranges_got =
        quantized_->RangeSearchBatch(queries_, kRadius, batch);
    for (size_t qi = 0; qi < queries_.size(); ++qi)
      ExpectSameAnswer(ranges_got[qi], ranges_want[qi],
                       std::to_string(threads) + " threads, range query " +
                           std::to_string(qi));
  }
}

TEST_P(CompressedSweep, LossySnapshotRoundTripServesIdenticalAnswers) {
  const std::string path = TestPath("compressed_parity_" +
                           std::string(MethodName(GetParam().method)) + "_" +
                           IndexKindName(GetParam().kind) + ".snp");
  SnapshotWriteOptions write;
  write.codec = CoarseCodec();
  ASSERT_TRUE(SaveIndexSnapshot(path, *raw_, write).ok());

  SimilarityIndex loaded(GetParam().method, kBudget, GetParam().kind,
                         options_);
  ASSERT_TRUE(LoadIndexSnapshot(path, ds_, &loaded).ok());
  EXPECT_TRUE(loaded.store().quantized());

  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    ExpectSameAnswer(loaded.Knn(queries_[qi], kK),
                     raw_->Knn(queries_[qi], kK),
                     "snapshot knn query " + std::to_string(qi));
    ExpectSameAnswer(loaded.RangeSearch(queries_[qi], kRadius),
                     raw_->RangeSearch(queries_[qi], kRadius),
                     "snapshot range query " + std::to_string(qi));
  }
  std::remove(path.c_str());
}

std::vector<CompressedCase> AllCases() {
  std::vector<CompressedCase> cases;
  for (const Method method : AllMethods())
    for (const IndexKind kind : {IndexKind::kRTree, IndexKind::kDbchTree})
      cases.push_back({method, kind});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllMethodsAndKinds, CompressedSweep,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(ColdSnapshotParity, ColdQuantizedShardServesIdenticalAnswers) {
  // The full tier stack at once: lossy codec + v4 section + cold (mmap)
  // load. Answers stay id- and distance-identical while the steady-state
  // resident bytes stay a fraction of the mapped archive.
  const Dataset ds = SmallDataset();
  const auto queries = SomeQueries(ds);

  SimilarityIndex raw(Method::kSapla, kBudget, IndexKind::kRTree);
  ASSERT_TRUE(raw.Build(ds).ok());

  const std::string path = TestPath("compressed_parity_cold.snp");
  SnapshotWriteOptions write;
  write.codec = CoarseCodec();
  write.store_format = StoreFormat::kV4;
  ASSERT_TRUE(SaveIndexSnapshot(path, raw, write).ok());

  SimilarityIndex cold(Method::kSapla, kBudget, IndexKind::kRTree);
  SnapshotLoadOptions load;
  load.cold_store = true;
  load.cold_cache_bytes = 1;  // maximum eviction pressure
  ASSERT_TRUE(LoadIndexSnapshot(path, ds, &cold, load).ok());
  EXPECT_TRUE(cold.store().cold());
  EXPECT_TRUE(cold.store().quantized());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectSameAnswer(cold.Knn(queries[qi], kK), raw.Knn(queries[qi], kK),
                     "cold knn query " + std::to_string(qi));
    ExpectSameAnswer(cold.RangeSearch(queries[qi], kRadius),
                     raw.RangeSearch(queries[qi], kRadius),
                     "cold range query " + std::to_string(qi));
  }

  const StoreFootprint fp = cold.footprint();
  EXPECT_GT(fp.mapped_bytes, 0u);
  EXPECT_GT(fp.frame_misses, 0u);
  std::remove(path.c_str());
}

TEST(ColdSnapshotParity, UnquantizedV4ColdLoadAlsoMatches) {
  // cold_store without a lossy codec: forcing the v4 layout alone is
  // enough to mmap-serve a full-precision corpus.
  const Dataset ds = SmallDataset();
  const auto queries = SomeQueries(ds);

  SimilarityIndex raw(Method::kCheby, kBudget, IndexKind::kRTree);
  ASSERT_TRUE(raw.Build(ds).ok());

  const std::string path = TestPath("compressed_parity_cold_raw.snp");
  SnapshotWriteOptions write;
  write.store_format = StoreFormat::kV4;
  ASSERT_TRUE(SaveIndexSnapshot(path, raw, write).ok());

  SimilarityIndex cold(Method::kCheby, kBudget, IndexKind::kRTree);
  SnapshotLoadOptions load;
  load.cold_store = true;
  ASSERT_TRUE(LoadIndexSnapshot(path, ds, &cold, load).ok());
  EXPECT_TRUE(cold.store().cold());
  EXPECT_FALSE(cold.store().quantized());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const KnnResult want = raw.Knn(queries[qi], kK);
    const KnnResult got = cold.Knn(queries[qi], kK);
    ExpectSameAnswer(got, want, "cold raw knn query " + std::to_string(qi));
    // Same store values -> same filter -> bit-identical counters too.
    EXPECT_EQ(got.num_measured, want.num_measured);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sapla
