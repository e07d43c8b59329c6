#include "geom/line_fit.h"

#include <cmath>

#include "util/status.h"

namespace sapla {

Line FitLine(const double* values, size_t l) {
  double s1 = 0.0, st = 0.0;
  for (size_t t = 0; t < l; ++t) {
    s1 += values[t];
    st += static_cast<double>(t) * values[t];
  }
  return FitFromSums(s1, st, l);
}

PrefixFitter::PrefixFitter(std::vector<double> values)
    : values_(std::move(values)),
      p1_(values_.size() + 1, 0.0),
      pt_(values_.size() + 1, 0.0),
      p2_(values_.size() + 1, 0.0) {
  for (size_t t = 0; t < values_.size(); ++t) {
    p1_[t + 1] = p1_[t] + values_[t];
    pt_[t + 1] = pt_[t] + static_cast<double>(t) * values_[t];
    p2_[t + 1] = p2_[t] + values_[t] * values_[t];
  }
}

double PrefixFitter::RangeSquareSum(size_t s, size_t e) const {
  SAPLA_DCHECK(s <= e && e < values_.size());
  return p2_[e + 1] - p2_[s];
}

double PrefixFitter::ResidualSse(size_t s, size_t e, const Line& line) const {
  const size_t l = e - s + 1;
  const double ld = static_cast<double>(l);
  const double t1 = ld * (ld - 1.0) / 2.0;                  // sum t
  const double t2 = (ld - 1.0) * ld * (2.0 * ld - 1.0) / 6.0;  // sum t^2
  const double s1 = RangeSum(s, e);
  const double st = RangeLocalTimeSum(s, e);
  const double s2 = RangeSquareSum(s, e);
  const double sse = s2 - 2.0 * line.a * st - 2.0 * line.b * s1 +
                     line.a * line.a * t2 + 2.0 * line.a * line.b * t1 +
                     line.b * line.b * ld;
  // Guard tiny negative values caused by cancellation.
  return sse > 0.0 ? sse : 0.0;
}

double PrefixFitter::MaxDeviation(size_t s, size_t e, const Line& line) const {
  SAPLA_DCHECK(s <= e && e < values_.size());
  double m = 0.0;
  for (size_t t = s; t <= e; ++t) {
    const double d = std::fabs(values_[t] - line.At(static_cast<double>(t - s)));
    if (d > m) m = d;
  }
  return m;
}

double PrefixFitter::MeanAbsDeviation(size_t s, size_t e,
                                      const Line& line) const {
  SAPLA_DCHECK(s <= e && e < values_.size());
  double sum = 0.0;
  for (size_t t = s; t <= e; ++t)
    sum += std::fabs(values_[t] - line.At(static_cast<double>(t - s)));
  return sum / static_cast<double>(e - s + 1);
}

}  // namespace sapla
