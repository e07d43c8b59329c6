#include "distance/distance.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace sapla {

std::vector<size_t> UnionEndpoints(const Representation& a,
                                   const Representation& b) {
  SAPLA_DCHECK(a.n == b.n);
  std::vector<size_t> r;
  r.reserve(a.segments.size() + b.segments.size());
  for (const auto& s : a.segments) r.push_back(s.r);
  for (const auto& s : b.segments) r.push_back(s.r);
  std::sort(r.begin(), r.end());
  r.erase(std::unique(r.begin(), r.end()), r.end());
  return r;
}

std::vector<LinearSegment> PartitionAt(const Representation& rep,
                                       const std::vector<size_t>& endpoints) {
  std::vector<LinearSegment> out;
  out.reserve(endpoints.size());
  size_t seg = 0;
  size_t start = 0;  // global start of the current output sub-segment
  for (const size_t r : endpoints) {
    SAPLA_DCHECK(seg < rep.segments.size() && r <= rep.segments[seg].r);
    // The source segment's line evaluated from the sub-segment's start:
    // same slope, intercept advanced by the offset into the segment.
    const LinearSegment& src = rep.segments[seg];
    const size_t src_start = rep.segment_start(seg);
    const double offset = static_cast<double>(start - src_start);
    out.push_back({src.a, src.a * offset + src.b, r});
    if (r == src.r) ++seg;
    start = r + 1;
  }
  return out;
}

double DistPar(const Representation& q, const Representation& c) {
  SAPLA_DCHECK(q.n == c.n);
  const std::vector<size_t> r = UnionEndpoints(q, c);
  const std::vector<LinearSegment> qp = PartitionAt(q, r);
  const std::vector<LinearSegment> cp = PartitionAt(c, r);
  double sum = 0.0;
  size_t start = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    const Line ql{qp[i].a, qp[i].b};
    const Line cl{cp[i].a, cp[i].b};
    sum += DistSSquared(ql, cl, r[i] - start + 1);
    start = r[i] + 1;
  }
  return std::sqrt(sum);
}

double DistLb(const PrefixFitter& query_fitter, const Representation& c) {
  SAPLA_DCHECK(query_fitter.size() == c.n);
  // "Project" the raw query onto the data's endpoints, O(1) per segment via
  // the prefix sums. The projection model matches the method's function
  // space — lines for the linear methods, constants (segment means) for the
  // constant-value ones — so that the data's stored coefficients are the
  // projection of the data itself and ||P(Q) - P(C)|| <= ||Q - C|| holds.
  const bool constant_model =
      c.method == Method::kApca || c.method == Method::kPaa ||
      c.method == Method::kPaalm || c.method == Method::kSax;
  double sum = 0.0;
  size_t start = 0;
  for (const auto& seg : c.segments) {
    const size_t l = seg.r - start + 1;
    Line ql;
    if (constant_model) {
      ql = Line{0.0, query_fitter.RangeSum(start, seg.r) /
                         static_cast<double>(l)};
    } else {
      ql = query_fitter.Fit(start, seg.r);
    }
    const Line cl{seg.a, seg.b};
    sum += DistSSquared(ql, cl, l);
    start = seg.r + 1;
  }
  return std::sqrt(sum);
}

double DistAe(const std::vector<double>& query_raw, const Representation& c) {
  SAPLA_DCHECK(query_raw.size() == c.n);
  const std::vector<double> rec = c.Reconstruct();
  double sum = 0.0;
  for (size_t t = 0; t < query_raw.size(); ++t) {
    const double d = query_raw[t] - rec[t];
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace sapla
