// Lower-bounding properties of the per-method filter distances
// (distance/mindist.h) and the query-to-MBR distances (index/feature_map.h).

#include "distance/mindist.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "index/feature_map.h"
#include "reduction/cheby.h"
#include "reduction/sax.h"
#include "ts/time_series.h"
#include "util/rng.h"

namespace sapla {
namespace {

std::vector<double> ZNormSeries(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 0.0;
  for (auto& p : v) {
    x += rng.Gaussian();
    p = x;
  }
  ZNormalize(&v);
  return v;
}

TEST(SaxMinDist, ZeroForIdenticalAndAdjacentSymbols) {
  const std::vector<double> a = ZNormSeries(1, 64);
  const SaxReducer reducer(8);
  const Representation ra = reducer.Reduce(a, 8);
  EXPECT_DOUBLE_EQ(SaxMinDist(ra, ra), 0.0);
}

TEST(SaxMinDist, LowerBoundsEuclidean) {
  // The classic SAX guarantee on z-normalized series.
  const SaxReducer reducer(8);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const std::vector<double> a = ZNormSeries(seed, 128);
    const std::vector<double> b = ZNormSeries(seed + 100, 128);
    const Representation ra = reducer.Reduce(a, 16);
    const Representation rb = reducer.Reduce(b, 16);
    EXPECT_LE(SaxMinDist(ra, rb), EuclideanDistance(a, b) + 1e-9)
        << "seed " << seed;
  }
}

TEST(SaxMinDist, GrowsWithSymbolSeparation) {
  Representation a, b;
  a.method = b.method = Method::kSax;
  a.n = b.n = 64;
  a.alphabet = b.alphabet = 8;
  a.segments = b.segments = {{0, 0, 31}, {0, 0, 63}};
  a.symbols = {0, 0};
  double prev = -1.0;
  for (int sym = 1; sym < 8; ++sym) {
    b.symbols = {sym, sym};
    const double d = SaxMinDist(a, b);
    EXPECT_GE(d, prev);
    prev = d;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(ChebyDist, LowerBoundsEuclideanByParseval) {
  const ChebyReducer reducer;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const std::vector<double> a = ZNormSeries(seed + 40, 128);
    const std::vector<double> b = ZNormSeries(seed + 400, 128);
    const Representation ra = reducer.Reduce(a, 16);
    const Representation rb = reducer.Reduce(b, 16);
    EXPECT_LE(ChebyDist(ra, rb), EuclideanDistance(a, b) + 1e-9);
  }
}

TEST(ChebyDist, FullBudgetEqualsEuclidean) {
  const std::vector<double> a = ZNormSeries(70, 64);
  const std::vector<double> b = ZNormSeries(71, 64);
  const ChebyReducer reducer;
  const Representation ra = reducer.Reduce(a, 64);
  const Representation rb = reducer.Reduce(b, 64);
  EXPECT_NEAR(ChebyDist(ra, rb), EuclideanDistance(a, b), 1e-8);
}

TEST(LowerBoundDistance, DispatchesPerMethod) {
  const std::vector<double> a = ZNormSeries(80, 64);
  const std::vector<double> b = ZNormSeries(81, 64);
  for (const Method m : AllMethods()) {
    const auto reducer = MakeReducer(m);
    const Representation ra = reducer->Reduce(a, 12);
    const Representation rb = reducer->Reduce(b, 12);
    const double d = LowerBoundDistance(ra, rb);
    EXPECT_TRUE(std::isfinite(d)) << MethodName(m);
    EXPECT_GE(d, 0.0) << MethodName(m);
    EXPECT_NEAR(LowerBoundDistance(ra, ra), 0.0, 1e-9) << MethodName(m);
  }
}

TEST(ConvexQuadMinOnBox, ZeroWhenBoxContainsOrigin) {
  EXPECT_DOUBLE_EQ(ConvexQuadMinOnBox(3, 1, 2, -1, 1, -1, 1), 0.0);
}

TEST(ConvexQuadMinOnBox, MatchesGridSearch) {
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const double l = 2.0 + static_cast<double>(rng.UniformInt(20));
    const double A = l * (l - 1.0) * (2.0 * l - 1.0) / 6.0;
    const double B = l * (l - 1.0);
    const double C = l;
    const double xlo = rng.Uniform(-2, 2);
    const double xhi = xlo + rng.Uniform(0, 2);
    const double ylo = rng.Uniform(-2, 2);
    const double yhi = ylo + rng.Uniform(0, 2);
    const double analytic = ConvexQuadMinOnBox(A, B, C, xlo, xhi, ylo, yhi);
    double grid = 1e300;
    const int steps = 60;
    for (int i = 0; i <= steps; ++i) {
      for (int j = 0; j <= steps; ++j) {
        const double x = xlo + (xhi - xlo) * i / steps;
        const double y = ylo + (yhi - ylo) * j / steps;
        grid = std::min(grid, A * x * x + B * x * y + C * y * y);
      }
    }
    EXPECT_LE(analytic, grid + 1e-6);
    EXPECT_GE(analytic, grid - 0.3);  // grid resolution slack
  }
}

// Query-to-MBR distances must lower-bound the query-to-member distance for
// every member inside the box (the GEMINI no-false-dismissal requirement at
// node level) for the provable mappings.
class FeatureMapSweep : public ::testing::TestWithParam<Method> {};

TEST_P(FeatureMapSweep, BoxDistLowerBoundsMemberDist) {
  const Method method = GetParam();
  const size_t n = 96, m = 12;
  const auto reducer = MakeReducer(method);
  const FeatureMapper mapper(method, m, n);

  // Build a node MBR over a handful of member feature boxes.
  RepresentationStore store;
  std::vector<std::vector<double>> raws;
  std::vector<double> lo, hi;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    raws.push_back(ZNormSeries(seed + 300, n));
    reducer->ReduceInto(raws.back(), m, &store);
    const FeatureMapper::Box box =
        mapper.MapBox(store.view(store.size() - 1), raws.back());
    if (lo.empty()) {
      lo = box.lo;
      hi = box.hi;
    } else {
      for (size_t d = 0; d < lo.size(); ++d) {
        lo[d] = std::min(lo[d], box.lo[d]);
        hi[d] = std::max(hi[d], box.hi[d]);
      }
    }
  }

  for (uint64_t qseed = 900; qseed < 910; ++qseed) {
    const std::vector<double> q = ZNormSeries(qseed, n);
    RepresentationStore query_store;
    reducer->ReduceInto(q, m, &query_store);
    const double box_dist = mapper.MinDist(q, query_store.view(0), lo, hi);
    EXPECT_GE(box_dist, 0.0);
    for (size_t i = 0; i < raws.size(); ++i) {
      // Box distance must not exceed the true distance to any member.
      EXPECT_LE(box_dist, EuclideanDistance(q, raws[i]) + 1e-6)
          << MethodName(method) << " member " << i << " q " << qseed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, FeatureMapSweep,
    ::testing::Values(Method::kPaa, Method::kApca, Method::kSapla,
                      Method::kApla, Method::kPla, Method::kCheby,
                      Method::kPaalm, Method::kSax, Method::kDft),
    [](const ::testing::TestParamInfo<Method>& info) {
      return MethodName(info.param);
    });

TEST(FilterDistance, ConsistentWithPerMethodBounds) {
  const std::vector<double> a = ZNormSeries(500, 96);
  const std::vector<double> b = ZNormSeries(501, 96);
  PrefixFitter af(a);
  for (const Method m : AllMethodsExtended()) {
    const auto reducer = MakeReducer(m);
    const Representation ra = reducer->Reduce(a, 12);
    const Representation rb = reducer->Reduce(b, 12);
    const double d = FilterDistance(af, ra, rb);
    EXPECT_TRUE(std::isfinite(d)) << MethodName(m);
    EXPECT_GE(d, 0.0) << MethodName(m);
    // Self-filter distance is ~0 for every LS-fit method. PAALM is the
    // deliberate exception: its smoothed values are off-mean, so the raw
    // query's projection does not coincide with its own representation.
    if (m != Method::kPaalm) {
      EXPECT_NEAR(FilterDistance(af, ra, ra), 0.0, 1e-8) << MethodName(m);
    }
  }
}

TEST(FilterDistance, RigorousForLeastSquaresMethods) {
  // Dist_LB-based filters never exceed the true distance for the LS-fit
  // methods (including PAALM's smoothed constants? No — PAALM values are
  // intentionally off-mean, so it is excluded here and measured by the
  // accuracy experiment instead).
  for (uint64_t seed = 600; seed < 620; ++seed) {
    const std::vector<double> q = ZNormSeries(seed, 96);
    const std::vector<double> c = ZNormSeries(seed + 70, 96);
    PrefixFitter qf(q);
    const double euclid = EuclideanDistance(q, c);
    for (const Method m : {Method::kSapla, Method::kApla, Method::kApca,
                           Method::kPla, Method::kPaa, Method::kCheby,
                           Method::kSax, Method::kDft}) {
      const auto reducer = MakeReducer(m);
      const Representation qr = reducer->Reduce(q, 12);
      const Representation cr = reducer->Reduce(c, 12);
      EXPECT_LE(FilterDistance(qf, qr, cr), euclid + 1e-9)
          << MethodName(m) << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace sapla
