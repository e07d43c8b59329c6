#ifndef SAPLA_DISTANCE_DISTANCE_H_
#define SAPLA_DISTANCE_DISTANCE_H_

// Distance measures between reduced representations (paper §5.1).
//
// Dist_S (Eq. 12) is the exact L2 distance between two lines sharing a
// segment; Dist_PAR partitions two adaptive-length representations onto the
// union of their endpoints — after which every sub-segment pair shares
// endpoints — and sums Dist_S. Dist_LB projects the raw query onto the
// data's endpoints (the APCA-style bound, adapted to lines), and Dist_AE is
// the tight-but-not-lower-bounding approximation.

#include <vector>

#include "geom/line_fit.h"
#include "reduction/representation.h"

namespace sapla {

/// Eq. (12): sum over j in [0, l) of (q(j) - c(j))^2 for two lines in the
/// same local coordinates. Closed form, O(1). Inline: every Dist_PAR and
/// Dist_LB kernel calls it once per (sub-)segment.
inline double DistSSquared(const Line& q, const Line& c, size_t l) {
  const double ld = static_cast<double>(l);
  const double da = q.a - c.a;
  const double db = q.b - c.b;
  // sum_{j=0}^{l-1} (da*j + db)^2 expanded with sum j and sum j^2.
  return ld * (ld - 1.0) * (2.0 * ld - 1.0) / 6.0 * da * da +
         ld * (ld - 1.0) * da * db + ld * db * db;
}

/// Sorted union of the two representations' segment endpoints (Def. 5.1's R).
std::vector<size_t> UnionEndpoints(const Representation& a,
                                   const Representation& b);

/// \brief Re-cuts a segment representation at the given endpoints.
///
/// `endpoints` must be a sorted superset of the representation's own
/// endpoints (ending at n-1). Restricting a line to a sub-range keeps the
/// slope and shifts the intercept, so the partition is exact: the
/// partitioned representation reconstructs the identical series.
std::vector<LinearSegment> PartitionAt(const Representation& rep,
                                       const std::vector<size_t>& endpoints);

/// \brief Dist_PAR (Definition 5.1): the paper's lower-bounding distance for
/// adaptive-length representations.
///
/// Equals the exact Euclidean distance between the two reconstructed series
/// (property-tested), computed in O(N + N') instead of O(n).
double DistPar(const Representation& q, const Representation& c);

/// \brief Dist_LB: the raw query refit over the data representation's
/// endpoints, then summed with Dist_S. Guaranteed less tight than Dist_PAR
/// (paper §A.6). O(N) after the query's PrefixFitter is built.
double DistLb(const PrefixFitter& query_fitter, const Representation& c);

/// \brief Dist_AE: exact Euclidean distance between the raw query and the
/// data's reconstruction. Tight approximation, NOT a lower bound. O(n).
double DistAe(const std::vector<double>& query_raw, const Representation& c);

}  // namespace sapla

#endif  // SAPLA_DISTANCE_DISTANCE_H_
