#ifndef SAPLA_GEOM_LINE_FIT_H_
#define SAPLA_GEOM_LINE_FIT_H_

// Least-squares line fitting over arbitrary ranges in O(1).
//
// Every piecewise-linear method in this library (PLA, APLA, SAPLA, the
// Dist_LB projection) needs the least-squares line of a contiguous range of
// a series. We precompute prefix sums of c_t, t*c_t and c_t^2 once per
// series, after which the fit of ANY range [s, e] is O(1):
//
//   a = (12*St - 6*(l-1)*S1) / (l*(l-1)*(l+1)),   b = mean - a*(l-1)/2
//
// where S1, St are the range's value and (local-)time-weighted sums. This is
// algebraically identical to the paper's Eq. (1) and subsumes its incremental
// equations (2)-(11), which we verify against this engine in
// core/paper_equations.h.

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace sapla {

/// \brief A line y = a*t + b over a segment's local coordinate t = 0..l-1.
///
/// Matches the paper's representation coefficients (a_i, b_i).
struct Line {
  double a = 0.0;  ///< slope
  double b = 0.0;  ///< y-intercept at the segment's first point

  double At(double t) const { return a * t + b; }
};

/// Least-squares line through (0, y_0) .. (l-1, y_{l-1}) given the
/// sufficient statistics S1 = sum(y_t) and St = sum(t*y_t).
/// For l == 1 returns the horizontal line through the single point.
/// Inline, like the PrefixFitter range queries below: the Dist_LB filter
/// calls them once per stored segment of every candidate.
inline Line FitFromSums(double s1, double st, size_t l) {
  Line line;
  if (l <= 1) {
    line.a = 0.0;
    line.b = s1;  // single point: S1 is the point itself
    return line;
  }
  const double ld = static_cast<double>(l);
  // a = (12*St - 6*(l-1)*S1) / (l*(l^2-1)); exact LS solution, equals Eq.(1).
  line.a = (12.0 * st - 6.0 * (ld - 1.0) * s1) / (ld * (ld - 1.0) * (ld + 1.0));
  line.b = s1 / ld - line.a * (ld - 1.0) / 2.0;
  return line;
}

/// Least-squares line over a raw vector (local coordinates).
Line FitLine(const double* values, size_t l);

/// \brief O(1) range queries over one series via prefix sums.
class PrefixFitter {
 public:
  /// Builds prefix sums; O(n). The series is copied so the fitter stays
  /// valid independently of the caller's buffer.
  explicit PrefixFitter(std::vector<double> values);

  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }

  /// Sum of c_t over the inclusive range [s, e].
  double RangeSum(size_t s, size_t e) const {
    SAPLA_DCHECK(s <= e && e < values_.size());
    return p1_[e + 1] - p1_[s];
  }

  /// Sum of (t - s) * c_t over [s, e] (local time weighting).
  double RangeLocalTimeSum(size_t s, size_t e) const {
    SAPLA_DCHECK(s <= e && e < values_.size());
    return (pt_[e + 1] - pt_[s]) - static_cast<double>(s) * RangeSum(s, e);
  }

  /// Sum of c_t^2 over [s, e].
  double RangeSquareSum(size_t s, size_t e) const;

  /// Least-squares line of the range [s, e] in local coordinates. O(1).
  Line Fit(size_t s, size_t e) const {
    return FitFromSums(RangeSum(s, e), RangeLocalTimeSum(s, e), e - s + 1);
  }

  /// Sum of squared residuals of `line` over [s, e]. O(1).
  double ResidualSse(size_t s, size_t e, const Line& line) const;

  /// Max |c_t - line(t - s)| over [s, e]. O(l) scan — the exact quantity the
  /// paper calls segment max deviation (Definition 3.4).
  double MaxDeviation(size_t s, size_t e, const Line& line) const;

  /// Mean absolute residual of `line` over [s, e]. O(l).
  double MeanAbsDeviation(size_t s, size_t e, const Line& line) const;

 private:
  std::vector<double> values_;
  std::vector<double> p1_;   // prefix of c_t
  std::vector<double> pt_;   // prefix of t * c_t (global t)
  std::vector<double> p2_;   // prefix of c_t^2
};

}  // namespace sapla

#endif  // SAPLA_GEOM_LINE_FIT_H_
