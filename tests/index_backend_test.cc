// Tests for the index-backend factory (index/index_backend.h): every
// IndexKind resolves to the backend of that name.

#include "index/index_backend.h"

#include <gtest/gtest.h>

#include "reduction/representation.h"
#include "ts/synthetic_archive.h"

namespace sapla {
namespace {

TEST(IndexBackendRegistry, BuiltInsResolveByName) {
  SyntheticOptions opt;
  opt.length = 64;
  opt.num_series = 10;
  const Dataset ds = MakeSyntheticDataset(3, opt);
  RepresentationStore store;
  const auto reducer = MakeReducer(Method::kPaa);
  for (const TimeSeries& ts : ds.series)
    reducer->ReduceInto(ts.values, 8, &store);
  for (const IndexKind kind : {IndexKind::kRTree, IndexKind::kDbchTree}) {
    auto backend = MakeIndexBackend(kind, {Method::kPaa, 8, &ds, &store, {}});
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->name(), IndexKindName(kind));
    for (size_t i = 0; i < ds.size(); ++i) backend->Insert(i);
    EXPECT_EQ(backend->ComputeStats().entries, ds.size());
  }
}

}  // namespace
}  // namespace sapla
