// Bit-identity of the view/batched distance kernels against the per-pair
// Representation kernels, their oracles. These are EXPECT_EQ on doubles on
// purpose: the view kernels promise the *same arithmetic in the same
// order*, not approximately-equal results.

#include "distance/kernels.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sapla.h"
#include "distance/distance.h"
#include "distance/mindist.h"
#include "geom/line_fit.h"
#include "reduction/dft.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "reduction/sax.h"
#include "ts/synthetic_archive.h"

namespace sapla {
namespace {

constexpr size_t kBudgets[] = {8, 12, 24};

Dataset TestDataset() {
  SyntheticOptions opt;
  opt.length = 200;
  opt.num_series = 20;
  return MakeSyntheticDataset(5, opt);
}

struct Corpus {
  std::vector<Representation> reps;
  RepresentationStore store;
};

Corpus ReduceAll(const Dataset& ds, Method method, size_t m) {
  Corpus corpus;
  const auto reducer = MakeReducer(method);
  for (const TimeSeries& ts : ds.series) {
    corpus.reps.push_back(reducer->Reduce(ts.values, m));
    corpus.store.Append(corpus.reps.back());
  }
  return corpus;
}

// Dist_PAR of two store views must equal the per-pair DistPar bit for bit.
void ExpectDistParBitIdentical(const Representation& q, const RepView& q_soa,
                               const Representation& c, const RepView& c_soa,
                               const std::string& label) {
  EXPECT_EQ(DistParView(q_soa, c_soa), DistPar(q, c)) << label;
}

// Merges each pair of adjacent segments into one (keeping the first
// segment's line), so every endpoint of the result is also one of `rep`'s.
Representation DropEveryOtherEndpoint(const Representation& rep) {
  Representation out = rep;
  out.segments.clear();
  for (size_t i = 0; i < rep.segments.size(); i += 2) {
    const size_t last = std::min(i + 1, rep.segments.size() - 1);
    out.segments.push_back(
        {rep.segments[i].a, rep.segments[i].b, rep.segments[last].r});
  }
  return out;
}

TEST(DistanceKernels, DistParViewIsBitIdenticalToDistPar) {
  const Dataset ds = TestDataset();
  for (const Method method : {Method::kSapla, Method::kApla, Method::kApca,
                              Method::kPla, Method::kPaa, Method::kPaalm}) {
    const std::string name = MethodName(method);
    for (const size_t m : kBudgets) {
      const Corpus corpus = ReduceAll(ds, method, m);
      for (size_t i = 0; i + 1 < corpus.reps.size(); ++i) {
        ExpectDistParBitIdentical(corpus.reps[i], corpus.store.view(i),
                                  corpus.reps[i + 1], corpus.store.view(i + 1),
                                  name + " M=" + std::to_string(m));
      }
    }

    // Different segment counts on the two sides, in both orders.
    const Corpus coarse = ReduceAll(ds, method, 8);
    const Corpus fine = ReduceAll(ds, method, 24);
    for (size_t i = 0; i + 1 < ds.size(); ++i) {
      ExpectDistParBitIdentical(coarse.reps[i], coarse.store.view(i),
                                fine.reps[i + 1], fine.store.view(i + 1),
                                name + " M=8 vs M=24");
      ExpectDistParBitIdentical(fine.reps[i], fine.store.view(i),
                                coarse.reps[i + 1], coarse.store.view(i + 1),
                                name + " M=24 vs M=8");
    }

    // Coincident endpoints: one side's endpoints are a subset of the
    // other's, and a series against itself shares every endpoint.
    Corpus merged;
    for (const Representation& rep : fine.reps) {
      merged.reps.push_back(DropEveryOtherEndpoint(rep));
      merged.store.Append(merged.reps.back());
    }
    for (size_t i = 0; i + 1 < ds.size(); ++i) {
      ExpectDistParBitIdentical(merged.reps[i], merged.store.view(i),
                                fine.reps[i], fine.store.view(i),
                                name + " subset endpoints, same series");
      ExpectDistParBitIdentical(fine.reps[i + 1], fine.store.view(i + 1),
                                merged.reps[i], merged.store.view(i),
                                name + " subset endpoints");
      ExpectDistParBitIdentical(fine.reps[i], fine.store.view(i),
                                fine.reps[i], fine.store.view(i),
                                name + " self");
    }
  }

  // Single-segment representations, against each other and against
  // multi-segment ones.
  const Corpus fine = ReduceAll(ds, Method::kSapla, 24);
  Corpus single;
  for (size_t i = 0; i < ds.size(); ++i) {
    Representation rep;
    rep.method = Method::kSapla;
    rep.n = ds.series[i].values.size();
    rep.segments.push_back({0.01 * static_cast<double>(i) - 0.05,
                            0.5 - 0.1 * static_cast<double>(i), rep.n - 1});
    single.reps.push_back(rep);
    single.store.Append(rep);
  }
  for (size_t i = 0; i + 1 < ds.size(); ++i) {
    ExpectDistParBitIdentical(single.reps[i], single.store.view(i),
                              single.reps[i + 1], single.store.view(i + 1),
                              "single vs single");
    ExpectDistParBitIdentical(single.reps[i], single.store.view(i),
                              fine.reps[i], fine.store.view(i),
                              "single vs M=24");
    ExpectDistParBitIdentical(fine.reps[i + 1], fine.store.view(i + 1),
                              single.reps[i], single.store.view(i),
                              "M=24 vs single");
  }
}

TEST(DistanceKernels, DistLbViewIsBitIdenticalToDistLb) {
  const Dataset ds = TestDataset();
  for (const Method method : {Method::kSapla, Method::kApla, Method::kApca,
                              Method::kPla, Method::kPaa, Method::kPaalm,
                              Method::kSax}) {
    for (const size_t m : kBudgets) {
      const Corpus corpus = ReduceAll(ds, method, m);
      const PrefixFitter fitter(ds.series[0].values);
      for (size_t i = 1; i < corpus.reps.size(); ++i) {
        EXPECT_EQ(DistLbView(fitter, corpus.store.view(i)),
                  DistLb(fitter, corpus.reps[i]));
      }
    }
  }
}

TEST(DistanceKernels, CoefficientAndSymbolKernelsAreBitIdentical) {
  const Dataset ds = TestDataset();
  for (const size_t m : kBudgets) {
    const Corpus cheby = ReduceAll(ds, Method::kCheby, m);
    const Corpus dft = ReduceAll(ds, Method::kDft, m);
    const Corpus sax = ReduceAll(ds, Method::kSax, m);
    DistanceScratch scratch;
    for (size_t i = 1; i < ds.size(); ++i) {
      EXPECT_EQ(ChebyDistView(cheby.store.view(0), cheby.store.view(i)),
                ChebyDist(cheby.reps[0], cheby.reps[i]));
      EXPECT_EQ(DftDistView(dft.store.view(0), dft.store.view(i)),
                DftDist(dft.reps[0], dft.reps[i]));
      EXPECT_EQ(
          SaxMinDistView(sax.store.view(0), sax.store.view(i), &scratch),
          SaxMinDist(sax.reps[0], sax.reps[i]));
    }
  }
}

TEST(DistanceKernels, DispatchersMatchLegacyDispatchersForEveryMethod) {
  const Dataset ds = TestDataset();
  for (const Method method : AllMethods()) {
    const Corpus corpus = ReduceAll(ds, method, 12);
    const PrefixFitter fitter(ds.series[0].values);
    DistanceScratch scratch;
    for (size_t i = 1; i < ds.size(); ++i) {
      EXPECT_EQ(LowerBoundDistanceView(corpus.store.view(0),
                                       corpus.store.view(i), &scratch),
                LowerBoundDistance(corpus.reps[0], corpus.reps[i]))
          << MethodName(method) << " id " << i;
      EXPECT_EQ(FilterDistanceView(fitter, corpus.store.view(0),
                                   corpus.store.view(i), &scratch),
                FilterDistance(fitter, corpus.reps[0], corpus.reps[i]))
          << MethodName(method) << " id " << i;
    }
  }
}

TEST(DistanceKernels, BatchedKernelsMatchPerPairKernels) {
  const Dataset ds = TestDataset();
  for (const Method method : AllMethods()) {
    const Corpus corpus = ReduceAll(ds, method, 12);
    const PrefixFitter fitter(ds.series[0].values);
    const RepView q = corpus.store.view(0);
    DistanceScratch scratch;

    // Full scan (ids == nullptr).
    std::vector<double> batch(ds.size());
    FilterDistanceBatch(fitter, q, corpus.store, nullptr, ds.size(),
                        batch.data(), &scratch);
    for (size_t i = 0; i < ds.size(); ++i) {
      EXPECT_EQ(batch[i],
                FilterDistance(fitter, corpus.reps[0], corpus.reps[i]))
          << MethodName(method) << " id " << i;
    }

    // Gathered subset, out of order (a leaf scan's id list).
    const std::vector<size_t> ids = {7, 2, 19, 2, 0, 11};
    std::vector<double> gathered(ids.size());
    FilterDistanceBatch(fitter, q, corpus.store, ids.data(), ids.size(),
                        gathered.data(), &scratch);
    for (size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(gathered[j],
                FilterDistance(fitter, corpus.reps[0], corpus.reps[ids[j]]));
    }

    std::vector<double> lb_batch(ds.size());
    LowerBoundDistanceBatch(q, corpus.store, nullptr, ds.size(),
                            lb_batch.data(), &scratch);
    for (size_t i = 0; i < ds.size(); ++i) {
      EXPECT_EQ(lb_batch[i],
                LowerBoundDistance(corpus.reps[0], corpus.reps[i]))
          << MethodName(method) << " id " << i;
    }
  }
}

TEST(DistanceKernels, ScratchStateDoesNotLeakAcrossPairs) {
  // Reusing one scratch across methods, segmentations and SAX alphabets
  // must not change any value.
  const Dataset ds = TestDataset();
  DistanceScratch reused;
  for (const size_t m : kBudgets) {
    for (const Method method : AllMethods()) {
      const Corpus corpus = ReduceAll(ds, method, m);
      for (size_t i = 0; i + 1 < ds.size(); ++i) {
        DistanceScratch fresh;
        EXPECT_EQ(LowerBoundDistanceView(corpus.store.view(i),
                                         corpus.store.view(i + 1), &reused),
                  LowerBoundDistanceView(corpus.store.view(i),
                                         corpus.store.view(i + 1), &fresh))
            << MethodName(method) << " M=" << m;
      }
    }
  }
  for (const size_t alphabet : {4, 16, 4}) {
    const SaxReducer reducer(alphabet);
    RepresentationStore store;
    for (const TimeSeries& ts : ds.series)
      store.Append(reducer.Reduce(ts.values, 12));
    for (size_t i = 0; i + 1 < ds.size(); ++i) {
      DistanceScratch fresh;
      EXPECT_EQ(SaxMinDistView(store.view(i), store.view(i + 1), &reused),
                SaxMinDistView(store.view(i), store.view(i + 1), &fresh))
          << "alphabet " << alphabet;
    }
  }
}

}  // namespace
}  // namespace sapla
