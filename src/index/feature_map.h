#ifndef SAPLA_INDEX_FEATURE_MAP_H_
#define SAPLA_INDEX_FEATURE_MAP_H_

// Mapping representations into the R-tree's vector space, plus the
// query-to-MBR lower-bound distances (the paper's §6 "Implementation").
//
// Per the paper: PAA, PAALM, SAX, SAPLA, APLA and APCA are indexed through
// APCA-style MBRs (each segment contributes a (value, right-endpoint) dim
// pair and the query-to-MBR distance is Keogh's region-based MINDIST); PLA
// uses its own (a_i, b_i) MBR with the Chen et al. distance; CHEBY boxes
// its coefficients, where plain point-to-box distance is a true bound.

#include <vector>

#include "reduction/representation.h"
#include "reduction/representation_store.h"

namespace sapla {

/// \brief Converts representations of one (method, M, n) configuration to
/// feature vectors and computes query-to-MBR lower bounds.
class FeatureMapper {
 public:
  /// \param method reduction method of every representation to be mapped.
  /// \param m coefficient budget (fixes the segment count).
  /// \param n original series length.
  FeatureMapper(Method method, size_t m, size_t n);

  /// Feature-space dimensionality.
  size_t dims() const { return dims_; }

  /// An axis-aligned feature box (lo == hi for point features).
  struct Box {
    std::vector<double> lo, hi;
  };

  /// Maps one representation view (must match method/M/n) to its feature
  /// box. For the APCA-family mapping the value dims span the segment's RAW
  /// min/max (Keogh's construction — this is what makes the region MINDIST
  /// a true lower bound), so the raw series is required; PLA and CHEBY
  /// produce point boxes from the coefficients alone.
  Box MapBox(const RepView& rep, const std::vector<double>& raw) const;

  /// Lower-bound distance from a query to the axis-aligned box [lo, hi].
  /// `query_raw` is the raw series (used by the APCA region MINDIST);
  /// `query_rep` its reduction (used by the PLA and CHEBY variants).
  double MinDist(const std::vector<double>& query_raw, const RepView& query_rep,
                 const std::vector<double>& lo,
                 const std::vector<double>& hi) const;

 private:
  double ApcaRegionMinDist(const std::vector<double>& q,
                           const std::vector<double>& lo,
                           const std::vector<double>& hi) const;
  double PlaBoxMinDist(const RepView& q, const std::vector<double>& lo,
                       const std::vector<double>& hi) const;

  Method method_;
  size_t n_;
  size_t num_segments_;
  size_t dims_;
};

/// Minimum of the convex quadratic A*x^2 + B*x*y + C*y^2 over the rectangle
/// [xlo, xhi] x [ylo, yhi] (used by the PLA MBR distance). Exposed for
/// testing.
double ConvexQuadMinOnBox(double A, double B, double C, double xlo, double xhi,
                          double ylo, double yhi);

}  // namespace sapla

#endif  // SAPLA_INDEX_FEATURE_MAP_H_
