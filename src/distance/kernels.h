#ifndef SAPLA_DISTANCE_KERNELS_H_
#define SAPLA_DISTANCE_KERNELS_H_

// View-based and batched distance kernels over the columnar corpus layout.
//
// These are the RepView counterparts of distance/distance.h and
// distance/mindist.h, written for the filter loop's actual access pattern:
// one query against many stored series. Two things make them faster than
// the per-pair Representation kernels while producing bit-identical
// values (tests/distance_kernels_test.cc):
//
//   * Dist_PAR walks the two endpoint lists in a single merge pass,
//     instead of materializing UnionEndpoints + two PartitionAt vectors
//     per pair. Each sub-segment's re-cut line uses the identical expression
//     (a, a * offset + b), summed in the identical ascending-endpoint
//     order, so every term — and therefore the sum — matches DistPar
//     bit for bit.
//   * The batched entry points (one query vs. `count` stored series) read
//     the store's contiguous columns directly, so the loop does arithmetic
//     instead of per-entry view construction and dispatch.
//     bench/bench_distance_kernels.cc tracks the throughput ratio.
//
// DistanceScratch caches the SAX breakpoint table per alphabet so the
// MINDIST kernel does not recompute quantiles per pair.

#include <cstddef>
#include <vector>

#include "geom/line_fit.h"
#include "reduction/representation_store.h"

namespace sapla {

/// \brief Reusable buffers for the kernels. One per thread / per query;
/// never shared concurrently. Cleared lazily — callers just pass it along.
struct DistanceScratch {
  /// SAX breakpoints cached per alphabet size.
  std::vector<double> sax_breakpoints;
  size_t sax_alphabet = 0;
};

/// Dist_PAR (Definition 5.1) over views; bit-identical to
/// DistPar(const Representation&, const Representation&). Allocates
/// nothing.
double DistParView(const RepView& q, const RepView& c);

/// Dist_LB over a view; bit-identical to DistLb(fitter, Representation).
double DistLbView(const PrefixFitter& query_fitter, const RepView& c);

/// CHEBY coefficient-space distance (cf. ChebyDist).
double ChebyDistView(const RepView& q, const RepView& c);

/// DFT conjugate-mirror coefficient distance (cf. DftDist).
double DftDistView(const RepView& q, const RepView& c);

/// SAX MINDIST (cf. SaxMinDist); `scratch` caches the breakpoint table.
double SaxMinDistView(const RepView& q, const RepView& c,
                      DistanceScratch* scratch);

/// Method-generic lower bound between two views of the SAME method; the
/// RepView counterpart of LowerBoundDistance (distance/mindist.h).
double LowerBoundDistanceView(const RepView& q, const RepView& c,
                              DistanceScratch* scratch);

/// Filter distance when the RAW query is available; the RepView
/// counterpart of FilterDistance (distance/mindist.h).
double FilterDistanceView(const PrefixFitter& query_fitter, const RepView& q,
                          const RepView& c, DistanceScratch* scratch);

/// \brief Batched one-query-vs-many filter distance over a store:
/// out[j] = FilterDistanceView(query_fitter, q, store[ids[j]], scratch).
/// `ids == nullptr` scans ids 0 .. count-1. The scratch is reused across
/// the whole batch; `out` must hold `count` doubles.
void FilterDistanceBatch(const PrefixFitter& query_fitter, const RepView& q,
                         const RepresentationStore& store, const size_t* ids,
                         size_t count, double* out, DistanceScratch* scratch);

/// Batched one-query-vs-many lower bound (Dist_PAR family):
/// out[j] = LowerBoundDistanceView(q, store[ids[j]], scratch).
void LowerBoundDistanceBatch(const RepView& q, const RepresentationStore& store,
                             const size_t* ids, size_t count, double* out,
                             DistanceScratch* scratch);

}  // namespace sapla

#endif  // SAPLA_DISTANCE_KERNELS_H_
