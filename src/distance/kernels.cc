#include "distance/kernels.h"

#include <cmath>

#include "distance/distance.h"
#include "util/normal.h"
#include "util/status.h"

namespace sapla {
namespace {

const std::vector<double>& CachedBreakpoints(size_t alphabet,
                                             DistanceScratch* scratch) {
  if (scratch->sax_alphabet != alphabet) {
    scratch->sax_breakpoints = SaxBreakpoints(alphabet);
    scratch->sax_alphabet = alphabet;
  }
  return scratch->sax_breakpoints;
}

// One series' segment columns.
struct SoaSegs {
  const double* a_;
  const double* b_;
  const uint32_t* r_;
  double a(size_t i) const { return a_[i]; }
  double b(size_t i) const { return b_[i]; }
  size_t r(size_t i) const { return static_cast<size_t>(r_[i]); }
};

// Dist_PAR core over two segment lists, in one pass. Both endpoint lists
// are sorted and end at n-1, so stepping to the smaller of the two current
// endpoints visits exactly the sorted union UnionEndpoints materializes,
// and both lists run out together. Each re-cut line is
// (a, a * offset + b) exactly as PartitionAt emits it, and the terms are
// summed in the same ascending order, so the result is bit-identical to
// DistPar over the equivalent Representations.
double DistParCore(const SoaSegs& q, size_t nq, const SoaSegs& c,
                   [[maybe_unused]] size_t nc) {
  double sum = 0.0;
  size_t start = 0;
  size_t iq = 0, ic = 0;
  size_t q_start = 0, c_start = 0;  // segment_start of the current sources
  while (iq < nq) {
    SAPLA_DCHECK(ic < nc);
    const size_t rq = q.r(iq);
    const size_t rc = c.r(ic);
    const size_t e = rq < rc ? rq : rc;
    const double q_off = static_cast<double>(start - q_start);
    const double c_off = static_cast<double>(start - c_start);
    const Line ql{q.a(iq), q.a(iq) * q_off + q.b(iq)};
    const Line cl{c.a(ic), c.a(ic) * c_off + c.b(ic)};
    sum += DistSSquared(ql, cl, e - start + 1);
    if (e == rq) {
      ++iq;
      q_start = e + 1;
    }
    if (e == rc) {
      ++ic;
      c_start = e + 1;
    }
    start = e + 1;
  }
  SAPLA_DCHECK(ic == nc);
  return std::sqrt(sum);
}

SoaSegs SegsOf(const RepView& v) {
  return SoaSegs{v.soa_a(), v.soa_b(), v.soa_r()};
}

}  // namespace

double DistParView(const RepView& q, const RepView& c) {
  SAPLA_DCHECK(q.n() == c.n());
  return DistParCore(SegsOf(q), q.num_segments(), SegsOf(c),
                     c.num_segments());
}

double DistLbView(const PrefixFitter& query_fitter, const RepView& c) {
  SAPLA_DCHECK(query_fitter.size() == c.n());
  // Mirrors DistLb (distance/distance.cc): project the raw query onto the
  // data's endpoints in the method's function space.
  const Method method = c.method();
  const bool constant_model =
      method == Method::kApca || method == Method::kPaa ||
      method == Method::kPaalm || method == Method::kSax;
  double sum = 0.0;
  size_t start = 0;
  const auto accumulate = [&](double ca, double cb, size_t r) {
    const size_t l = r - start + 1;
    Line ql;
    if (constant_model) {
      ql = Line{0.0, query_fitter.RangeSum(start, r) / static_cast<double>(l)};
    } else {
      ql = query_fitter.Fit(start, r);
    }
    const Line cl{ca, cb};
    sum += DistSSquared(ql, cl, l);
    start = r + 1;
  };
  const size_t num_segments = c.num_segments();
  const double* a = c.soa_a();
  const double* b = c.soa_b();
  const uint32_t* r = c.soa_r();
  for (size_t i = 0; i < num_segments; ++i)
    accumulate(a[i], b[i], static_cast<size_t>(r[i]));
  return std::sqrt(sum);
}

double ChebyDistView(const RepView& q, const RepView& c) {
  const size_t k = std::min(q.num_coeffs(), c.num_coeffs());
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double d = q.coeffs()[i] - c.coeffs()[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double DftDistView(const RepView& q, const RepView& c) {
  SAPLA_DCHECK(q.n() == c.n());
  const size_t bins = std::min(q.num_coeffs(), c.num_coeffs()) / 2;
  const size_t n = q.n();
  double sum = 0.0;
  for (size_t k = 0; k < bins; ++k) {
    const double dre = q.coeffs()[2 * k] - c.coeffs()[2 * k];
    const double dim = q.coeffs()[2 * k + 1] - c.coeffs()[2 * k + 1];
    const bool self_mirrored = k == 0 || 2 * k == n;
    sum += (self_mirrored ? 1.0 : 2.0) * (dre * dre + dim * dim);
  }
  return std::sqrt(sum);
}

double SaxMinDistView(const RepView& q, const RepView& c,
                      DistanceScratch* scratch) {
  SAPLA_DCHECK(q.method() == Method::kSax && c.method() == Method::kSax);
  SAPLA_DCHECK(q.alphabet() == c.alphabet() && q.n() == c.n());
  SAPLA_DCHECK(q.num_symbols() == c.num_symbols());
  const std::vector<double>& bp = CachedBreakpoints(q.alphabet(), scratch);
  const double n = static_cast<double>(q.n());
  const double num_segments = static_cast<double>(q.num_symbols());
  double sum = 0.0;
  for (size_t i = 0; i < q.num_symbols(); ++i) {
    const int a = q.symbols()[i];
    const int b = c.symbols()[i];
    if (std::abs(a - b) <= 1) continue;  // adjacent regions contribute 0
    const int hi = std::max(a, b);
    const int lo = std::min(a, b);
    const double cell =
        bp[static_cast<size_t>(hi - 1)] - bp[static_cast<size_t>(lo)];
    sum += cell * cell;
  }
  return std::sqrt(n / num_segments) * std::sqrt(sum);
}

double LowerBoundDistanceView(const RepView& q, const RepView& c,
                              DistanceScratch* scratch) {
  SAPLA_DCHECK(q.method() == c.method());
  switch (q.method()) {
    case Method::kCheby:
      return ChebyDistView(q, c);
    case Method::kDft:
      return DftDistView(q, c);
    case Method::kSax:
      return SaxMinDistView(q, c, scratch);
    default:
      return DistParView(q, c);
  }
}

double FilterDistanceView(const PrefixFitter& query_fitter, const RepView& q,
                          const RepView& c, DistanceScratch* scratch) {
  SAPLA_DCHECK(q.method() == c.method());
  switch (q.method()) {
    case Method::kCheby:
      return ChebyDistView(q, c);
    case Method::kDft:
      return DftDistView(q, c);
    case Method::kSax:
      return SaxMinDistView(q, c, scratch);
    default:
      return DistLbView(query_fitter, c);
  }
}

void FilterDistanceBatch(const PrefixFitter& query_fitter, const RepView& q,
                         const RepresentationStore& store, const size_t* ids,
                         size_t count, double* out, DistanceScratch* scratch) {
  if (count == 0) return;
  if (store.cold()) {
    // Cold store: the columns are not resident, so stream through pinned
    // frame views instead. Ascending ids touch each decoded frame once
    // (one decode per frame of series), and the per-view kernel computes
    // the identical expression in the identical order, so out[j] is
    // bit-identical to the hot column walk below.
    StoreReadPin pin;
    for (size_t j = 0; j < count; ++j) {
      const size_t id = ids ? ids[j] : j;
      out[j] = FilterDistanceView(query_fitter, q, store.view(id, &pin),
                                  scratch);
    }
    return;
  }
  const Method method = store.method();
  const bool segment_family = method != Method::kCheby &&
                              method != Method::kDft && method != Method::kSax;
  if (!segment_family) {
    for (size_t j = 0; j < count; ++j) {
      const size_t id = ids ? ids[j] : j;
      out[j] = FilterDistanceView(query_fitter, q, store.view(id), scratch);
    }
    return;
  }
  // Segment methods take the Dist_LB branch; the store is homogeneous, so
  // the whole batch walks the contiguous columns directly — no per-entry
  // RepView construction, no dispatch. The accumulation is the exact
  // DistLbView expression in the exact order, so out[j] stays bit-identical
  // to the per-pair kernel.
  const bool constant_model = method == Method::kApca ||
                              method == Method::kPaa ||
                              method == Method::kPaalm;
  const uint64_t* off = store.seg_offsets().data();
  const double* a = store.a_column().data();
  const double* b = store.b_column().data();
  const uint32_t* r = store.r_column().data();
  for (size_t j = 0; j < count; ++j) {
    const size_t id = ids ? ids[j] : j;
    double sum = 0.0;
    size_t start = 0;
    for (uint64_t k = off[id]; k < off[id + 1]; ++k) {
      const size_t rr = static_cast<size_t>(r[k]);
      const size_t l = rr - start + 1;
      Line ql;
      if (constant_model) {
        ql = Line{0.0,
                  query_fitter.RangeSum(start, rr) / static_cast<double>(l)};
      } else {
        ql = query_fitter.Fit(start, rr);
      }
      const Line cl{a[k], b[k]};
      sum += DistSSquared(ql, cl, l);
      start = rr + 1;
    }
    out[j] = std::sqrt(sum);
  }
}

void LowerBoundDistanceBatch(const RepView& q, const RepresentationStore& store,
                             const size_t* ids, size_t count, double* out,
                             DistanceScratch* scratch) {
  if (count == 0) return;
  if (store.cold()) {
    // Frame-decode path, same rationale as FilterDistanceBatch above.
    StoreReadPin pin;
    for (size_t j = 0; j < count; ++j) {
      const size_t id = ids ? ids[j] : j;
      out[j] = LowerBoundDistanceView(q, store.view(id, &pin), scratch);
    }
    return;
  }
  const Method method = store.method();
  const bool segment_family = method != Method::kCheby &&
                              method != Method::kDft && method != Method::kSax;
  if (!segment_family) {
    for (size_t j = 0; j < count; ++j) {
      const size_t id = ids ? ids[j] : j;
      out[j] = LowerBoundDistanceView(q, store.view(id), scratch);
    }
    return;
  }
  // Segment methods take the Dist_PAR branch; feed each corpus slice
  // straight from the contiguous columns — no per-entry RepView
  // construction.
  const uint64_t* off = store.seg_offsets().data();
  const double* a = store.a_column().data();
  const double* b = store.b_column().data();
  const uint32_t* r = store.r_column().data();
  const SoaSegs qs = SegsOf(q);
  const size_t nq = q.num_segments();
  for (size_t j = 0; j < count; ++j) {
    const size_t id = ids ? ids[j] : j;
    const uint64_t s0 = off[id];
    out[j] = DistParCore(qs, nq, SoaSegs{a + s0, b + s0, r + s0},
                         static_cast<size_t>(off[id + 1] - s0));
  }
}

}  // namespace sapla
