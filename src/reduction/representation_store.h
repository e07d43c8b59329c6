#ifndef SAPLA_REDUCTION_REPRESENTATION_STORE_H_
#define SAPLA_REDUCTION_REPRESENTATION_STORE_H_

// Columnar (structure-of-arrays) corpus container for reduced
// representations, plus the cheap non-owning RepView the hot paths consume.
//
// Every filter-and-refine loop in the system — Dist_PAR / Dist_LB kernels,
// tree leaf scans, the kNN linear-scan fallback, the serving batch executor
// — iterates the whole corpus. Storing each series as a Representation
// (three small heap vectors per series) bottlenecks those loops on
// pointer-chasing; the store instead keeps one contiguous arena per column:
//
//   a[], b[]      segment line coefficients (doubles)
//   r[]           inclusive right endpoints (uint32_t; n < 2^32)
//   coeffs[]      CHEBY / DFT transform coefficients
//   symbols[]     SAX symbols
//
// plus per-series offset tables (seg_offsets_[i] .. seg_offsets_[i+1] is
// series i's slice of a/b/r, and likewise for coeffs and symbols). A store
// is homogeneous — one (method, n, alphabet) configuration, fixed by the
// first Append — because that is what a corpus is; heterogeneous archives
// stay on the v1 per-Representation text format (ts/io.h).
//
// RepView exposes the same accessor vocabulary as Representation
// (num_segments / segment_start / segment_length plus per-field reads) over
// one store slice. Distance kernels (distance/kernels.h), the feature
// mapper and the index backends are written against RepView; the
// per-Representation kernels (distance/distance.h, distance/mindist.h)
// remain as their test oracles.
//
// Representation survives as the build/interchange type: Append() ingests
// one (losslessly), ToRepresentation() materializes one back.
//
// ## Storage tiers (docs/ARCHITECTURE.md "Storage tiers & column codecs")
//
// A store lives in one of two residency tiers:
//
//   * hot  — decoded resident arenas (the layout above). view(id) is a
//            pointer fix-up; all query paths run at full speed.
//   * cold — an mmap-backed v4 SAPLACOL archive (ts/io.h) whose encoded
//            frames are decoded lazily into a bounded LRU cache on first
//            touch (reduction/column_residency.h). view(id, &pin) pins the
//            frame containing `id`; sequential scans re-use the pin and pay
//            the cache lock once per frame, not once per series.
//
// Orthogonally, a store's float columns may be *quantized* (fixed-point,
// reduction/column_codec.h). Quantization never touches the segmentation
// (r endpoints), SAX symbols or offset tables, so a quantized corpus keeps
// the exact structure of its source; the per-series lower-bound slack
// lb_slack(id) bounds how far any Dist_LB/Dist_PAR filter value can move,
// and the search layer subtracts it before pruning so GEMINI
// no-false-dismissal survives compression (exact distances are always
// recomputed from raw series during refinement).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "reduction/representation.h"
#include "util/status.h"

namespace sapla {

namespace storedetail {
struct DecodedFrame;   // one decoded frame of a cold store
struct ColdColumns;    // mmap + frame directory + bounded decode cache
}  // namespace storedetail

/// \brief Non-owning view of one reduced series' slice of a store's
/// columns. Trivially copyable; valid only while the underlying storage is
/// (for cold stores: while the StoreReadPin that produced it holds the
/// frame).
class RepView {
 public:
  RepView() = default;

  Method method() const { return method_; }
  size_t n() const { return n_; }
  size_t alphabet() const { return alphabet_; }

  size_t num_segments() const { return num_segments_; }

  /// Segment i's line slope / intercept / inclusive right endpoint.
  double seg_a(size_t i) const { return a_[i]; }
  double seg_b(size_t i) const { return b_[i]; }
  size_t seg_r(size_t i) const { return static_cast<size_t>(r_[i]); }

  /// Global index of segment i's first point (same math as Representation).
  size_t segment_start(size_t i) const { return i == 0 ? 0 : seg_r(i - 1) + 1; }

  /// Length of segment i (r_i - r_{i-1}).
  size_t segment_length(size_t i) const {
    return seg_r(i) - (i == 0 ? static_cast<size_t>(0) : seg_r(i - 1) + 1) + 1;
  }

  const double* coeffs() const { return coeffs_; }
  size_t num_coeffs() const { return num_coeffs_; }

  const int* symbols() const { return symbols_; }
  size_t num_symbols() const { return num_symbols_; }

  /// Raw column access for hot kernels (distance/kernels.cc); valid for
  /// num_segments() entries.
  const double* soa_a() const { return a_; }
  const double* soa_b() const { return b_; }
  const uint32_t* soa_r() const { return r_; }

 private:
  friend class RepresentationStore;

  Method method_ = Method::kSapla;
  size_t n_ = 0;
  size_t alphabet_ = 0;
  size_t num_segments_ = 0;
  // The columns point into the store's arenas (hot) or a pinned decoded
  // frame (cold).
  const double* a_ = nullptr;
  const double* b_ = nullptr;
  const uint32_t* r_ = nullptr;
  const double* coeffs_ = nullptr;
  size_t num_coeffs_ = 0;
  const int* symbols_ = nullptr;
  size_t num_symbols_ = 0;
};

/// Fixed-point quantization steps for a store's float columns. A step of 0
/// leaves that column at full precision (raw f64 passthrough). Integer
/// columns (endpoints, symbols, offsets) are always lossless.
struct StoreCodecOptions {
  /// Step for the segment a/b coefficient columns; max abs error per value
  /// is ab_step / 2.
  double ab_step = 0.0;
  /// Step for the CHEBY/DFT transform-coefficient column.
  double coeff_step = 0.0;

  bool lossless() const { return ab_step == 0.0 && coeff_step == 0.0; }
};

/// Storage-tier footprint of one store (summed across stores by the
/// serving layer; exported as gauges by obs/metrics.h).
struct StoreFootprint {
  /// Heap bytes of decoded arenas + offset tables + slack column + the
  /// cold tier's current decode-cache contents.
  size_t resident_bytes = 0;
  /// Bytes of the mmap-backed archive (0 for hot stores).
  size_t mapped_bytes = 0;
  /// Decode-cache traffic of the cold tier (cumulative).
  uint64_t frame_hits = 0;
  uint64_t frame_misses = 0;

  StoreFootprint& operator+=(const StoreFootprint& o) {
    resident_bytes += o.resident_bytes;
    mapped_bytes += o.mapped_bytes;
    frame_hits += o.frame_hits;
    frame_misses += o.frame_misses;
    return *this;
  }
};

/// \brief Caller-held pin over the cold tier's current decoded frame.
///
/// view(id, &pin) stores the frame's shared_ptr here, which (a) keeps the
/// decoded columns alive while the returned RepView is in use — even if
/// the LRU cache evicts the frame concurrently — and (b) lets the next
/// view() on the same frame skip the cache lock entirely. One pin per
/// thread / per scan; never shared concurrently. For hot stores a pin is
/// inert and costs nothing.
class StoreReadPin {
 public:
  StoreReadPin();
  ~StoreReadPin();
  StoreReadPin(StoreReadPin&&) noexcept;
  StoreReadPin& operator=(StoreReadPin&&) noexcept;
  StoreReadPin(const StoreReadPin&) = delete;
  StoreReadPin& operator=(const StoreReadPin&) = delete;

  /// Releases the pinned frame (eviction can reclaim it).
  void Release();

 private:
  friend class RepresentationStore;

  std::shared_ptr<const storedetail::DecodedFrame> frame_;
  // Copies of the pinned frame's id range for the fast-path check.
  size_t first_ = 0;
  size_t count_ = 0;
};

/// \brief Arena-backed SoA container of one corpus' representations.
class RepresentationStore {
 public:
  RepresentationStore();

  RepresentationStore(RepresentationStore&&) = default;
  RepresentationStore& operator=(RepresentationStore&&) = default;
  // Copies duplicate content but take a FRESH store id: id() keys the serve
  // result cache, and two distinct store objects must never alias an entry
  // (a defaulted copy once did exactly that — see store_codec_test.cc's
  // regression test).
  RepresentationStore(const RepresentationStore& other);
  RepresentationStore& operator=(const RepresentationStore& other);

  /// Appends one representation (lossless; the FromRepresentation
  /// converter). The first append fixes the store's (method, n, alphabet);
  /// later appends must match. Returns the new series id (== size() - 1).
  /// Hot stores only.
  size_t Append(const Representation& rep);

  /// Materializes series `id` back into the interchange type
  /// (lossless inverse of Append). Works on both tiers.
  Representation ToRepresentation(size_t id) const;

  /// Columnar view of series `id`; valid until the store is mutated.
  /// Inline: the filter loops construct one view per corpus entry per
  /// query, so this must fold into the caller. Hot stores only — cold
  /// stores require the pinned overload below.
  RepView view(size_t id) const {
    SAPLA_DCHECK(cold_ == nullptr);
    RepView v;
    v.method_ = method_;
    v.n_ = n_;
    v.alphabet_ = alphabet_;
    const uint64_t s0 = seg_off_[id];
    v.num_segments_ = static_cast<size_t>(seg_off_[id + 1] - s0);
    v.a_ = a_.data() + s0;
    v.b_ = b_.data() + s0;
    v.r_ = r_.data() + s0;
    const uint64_t c0 = coeff_off_[id];
    v.num_coeffs_ = static_cast<size_t>(coeff_off_[id + 1] - c0);
    v.coeffs_ = v.num_coeffs_ > 0 ? coeffs_.data() + c0 : nullptr;
    const uint64_t y0 = sym_off_[id];
    v.num_symbols_ = static_cast<size_t>(sym_off_[id + 1] - y0);
    v.symbols_ = v.num_symbols_ > 0 ? symbols_.data() + y0 : nullptr;
    return v;
  }
  RepView operator[](size_t id) const { return view(id); }

  /// Tier-generic view: hot stores ignore the pin; cold stores decode (or
  /// fetch from cache) the frame containing `id` and pin it. The returned
  /// view is valid while `*pin` holds the frame (until the next view()
  /// through the same pin that crosses a frame boundary, or Release()).
  RepView view(size_t id, StoreReadPin* pin) const {
    if (cold_ == nullptr) return view(id);
    return ColdView(id, pin);
  }

  /// Drops all content and configuration and assigns a fresh store id
  /// (used by SimilarityIndex::Build so rebuilds never alias cached
  /// results keyed by the old corpus).
  void Reset();

  /// Pre-sizes the arenas (series count and total segment estimate).
  void Reserve(size_t num_series, size_t total_segments);

  size_t size() const { return num_series_; }
  bool empty() const { return num_series_ == 0; }

  /// Configuration; meaningful once size() > 0.
  Method method() const { return method_; }
  size_t series_length() const { return n_; }
  size_t alphabet() const { return alphabet_; }

  /// Stable identity of this corpus instance: unique per construction /
  /// copy / Reset within the process. The serving layer keys its result
  /// cache on it, so two different corpora never alias a cache entry.
  uint64_t id() const { return store_id_; }

  // --- Quantization metadata (codec tier) ---------------------------------

  /// True when the float columns were fixed-point quantized; filter values
  /// over this store may differ from the full-precision store by at most
  /// lb_slack(id) per series, and the search layer must subtract that
  /// slack before pruning.
  bool quantized() const { return quantized_; }

  /// The steps the columns were quantized with (both 0 when !quantized()).
  const StoreCodecOptions& codec() const { return codec_; }

  /// Per-series lower-bound slack: an upper bound (in the method's filter
  /// norm) on |LB(q, this[id]) - LB(q, original[id])| for ANY query q.
  /// 0 for unquantized stores. Always resident, even on the cold tier.
  double lb_slack(size_t id) const {
    return lb_slack_.empty() ? 0.0 : lb_slack_[id];
  }
  /// max over lb_slack(id) — the store-level slack for node-distance
  /// (MBR / hull) bounds that cover many series at once.
  double max_lb_slack() const { return max_lb_slack_; }
  /// The whole slack column (persistence).
  const std::vector<double>& lb_slack_column() const { return lb_slack_; }

  /// Installs quantization metadata (used by the quantizer and the v4
  /// loader; not part of the normal build path). `lb_slack` must be empty
  /// or have size() entries.
  void SetCodecState(const StoreCodecOptions& codec,
                     std::vector<double> lb_slack);

  // --- Residency tier ------------------------------------------------------

  /// True when this store is cold (mmap-backed lazy frames).
  bool cold() const { return cold_ != nullptr; }

  /// Bytes resident vs. mapped plus decode-cache traffic.
  StoreFootprint footprint() const;

  /// Assembles a cold store over a decoded v4 archive (ts/io.h's
  /// OpenColdRepresentationStore is the public entry point).
  static RepresentationStore FromColdColumns(
      Method method, size_t n, size_t alphabet, size_t num_series,
      std::shared_ptr<storedetail::ColdColumns> cold,
      const StoreCodecOptions& codec, std::vector<double> lb_slack);

  // -------------------------------------------------------------------------

  /// Raw column access (persistence, future SIMD kernels). The offset
  /// tables have size() + 1 entries; series i's segment slice is
  /// [seg_offsets()[i], seg_offsets()[i + 1]). Hot stores only — a cold
  /// store's columns live in encoded frames.
  const std::vector<uint64_t>& seg_offsets() const { return seg_off_; }
  const std::vector<uint64_t>& coeff_offsets() const { return coeff_off_; }
  const std::vector<uint64_t>& symbol_offsets() const { return sym_off_; }
  const std::vector<double>& a_column() const { return a_; }
  const std::vector<double>& b_column() const { return b_; }
  const std::vector<uint32_t>& r_column() const { return r_; }
  const std::vector<double>& coeff_column() const { return coeffs_; }
  const std::vector<int>& symbol_column() const { return symbols_; }

  /// Rebuilds a store from raw columns (the v2 persistence loader).
  /// Validates offset-table monotonicity, column sizes and per-series
  /// segment coverage (last endpoint == n - 1); returns InvalidArgument on
  /// any structural inconsistency.
  static Result<RepresentationStore> FromColumns(
      Method method, size_t n, size_t alphabet,
      std::vector<uint64_t> seg_offsets, std::vector<uint64_t> coeff_offsets,
      std::vector<uint64_t> symbol_offsets, std::vector<double> a,
      std::vector<double> b, std::vector<uint32_t> r,
      std::vector<double> coeffs, std::vector<int> symbols);

  /// Structural + bitwise content equality including quantization
  /// metadata (store identity excluded). Hot stores only.
  friend bool operator==(const RepresentationStore& x,
                         const RepresentationStore& y);

 private:
  /// Cold-tier view: pin fast path, else lock the cache and decode/fetch.
  RepView ColdView(size_t id, StoreReadPin* pin) const;

  Method method_ = Method::kSapla;
  size_t n_ = 0;
  size_t alphabet_ = 0;
  size_t num_series_ = 0;

  // Offset tables: size num_series_ + 1, entry 0 == 0. (Hot tier only.)
  std::vector<uint64_t> seg_off_{0};
  std::vector<uint64_t> coeff_off_{0};
  std::vector<uint64_t> sym_off_{0};

  // Column arenas. (Hot tier only.)
  std::vector<double> a_, b_;
  std::vector<uint32_t> r_;
  std::vector<double> coeffs_;
  std::vector<int> symbols_;

  // Quantization metadata: set by the quantizer / v4 loader.
  bool quantized_ = false;
  StoreCodecOptions codec_;
  std::vector<double> lb_slack_;   // empty, or one entry per series
  double max_lb_slack_ = 0.0;

  // Cold tier: non-null iff this store is mmap-backed. Shared so copies
  // (which take a fresh store id) still reference one mapping + cache.
  std::shared_ptr<storedetail::ColdColumns> cold_;

  uint64_t store_id_ = 0;
};

}  // namespace sapla

#endif  // SAPLA_REDUCTION_REPRESENTATION_STORE_H_
