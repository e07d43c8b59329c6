// Column-codec and storage-tier tests: varint/zigzag primitives, the
// lossless column codecs, the store quantizer's error and slack contracts,
// the v4 SAPLACOL revision (byte-identity, v1/v2/v3 -> v4 migration,
// corruption fuzzing), the mmap-backed cold tier (hot == cold views, LRU
// eviction, concurrent readers) and the copy-takes-a-fresh-store-id
// regression.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/sapla.h"
#include "distance/distance.h"
#include "distance/kernels.h"
#include "reduction/column_codec.h"
#include "reduction/column_residency.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "ts/io.h"
#include "ts/synthetic_archive.h"
#include "util/rng.h"
#include "test_tmpdir.h"

namespace sapla {
namespace {

Dataset SmallDataset(uint64_t seed = 9, size_t length = 96,
                     size_t count = 12) {
  SyntheticOptions opt;
  opt.length = length;
  opt.num_series = count;
  return MakeSyntheticDataset(seed, opt);
}

RepresentationStore MakeStore(Method method, const Dataset& ds,
                              size_t m = 12) {
  const auto reducer = MakeReducer(method);
  RepresentationStore store;
  for (const TimeSeries& ts : ds.series)
    reducer->ReduceInto(ts.values, m, &store);
  return store;
}

std::string RepText(const RepresentationStore& store, size_t id) {
  return SerializeRepresentation(store.ToRepresentation(id));
}

// --- codec primitives ------------------------------------------------------

TEST(ColumnCodec, VarintRoundTrips) {
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  1u << 14, (1u << 21) - 1, 1ull << 35,
                             ~0ull};
  std::string buf;
  for (const uint64_t v : values) colcodec::PutVarint(&buf, v);
  const char* p = buf.data();
  const char* end = buf.data() + buf.size();
  for (const uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(colcodec::GetVarint(&p, end, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(p, end);
  // Truncated input fails instead of reading past the end.
  for (size_t len = 0; len < buf.size(); ++len) {
    const char* q = buf.data();
    const char* qe = buf.data() + len;
    uint64_t sink = 0;
    size_t decoded = 0;
    while (colcodec::GetVarint(&q, qe, &sink)) ++decoded;
    EXPECT_LE(q, qe);
  }
}

TEST(ColumnCodec, ZigzagRoundTrips) {
  const int64_t values[] = {0, 1, -1, 2, -2, 1234567, -1234567,
                           INT64_MAX, INT64_MIN};
  for (const int64_t v : values)
    EXPECT_EQ(colcodec::ZigzagDecode(colcodec::ZigzagEncode(v)), v);
  // Small magnitudes map to small codes (the property delta coding needs).
  EXPECT_EQ(colcodec::ZigzagEncode(0), 0u);
  EXPECT_EQ(colcodec::ZigzagEncode(-1), 1u);
  EXPECT_EQ(colcodec::ZigzagEncode(1), 2u);
}

TEST(ColumnCodec, F64ColumnQuantizedPathIsBitExactAndSmaller) {
  // A column whose every value is an exact multiple of the step uses
  // kDeltaFixedF64 and decodes bit-exactly.
  const double step = 1e-3;
  std::vector<double> v;
  for (int i = 0; i < 512; ++i)
    v.push_back(static_cast<double>((i * 37) % 1000 - 500) * step);
  std::string blob;
  colcodec::EncodeF64Column(v.data(), v.size(), step, &blob);
  EXPECT_LT(blob.size(), v.size() * sizeof(double));

  colcodec::Cursor c{blob.data(), blob.data() + blob.size()};
  std::vector<double> out;
  double step_out = 0.0;
  ASSERT_TRUE(colcodec::DecodeF64Column(&c, v.size(), &out, &step_out).ok());
  EXPECT_EQ(step_out, step);
  ASSERT_EQ(out.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(out[i], v[i]) << "value " << i;
  EXPECT_EQ(c.remaining(), 0u);
}

TEST(ColumnCodec, F64ColumnFallsBackToRawWhenNotRepresentable) {
  // Values that do not round-trip through the fixed-point grid (or are
  // non-finite) force the whole column to raw f64 — still bit-exact.
  const std::vector<double> v = {0.1, 1.0 / 3.0, 2e18,
                                 std::nan(""), -0.0, 1e-300};
  std::string blob;
  colcodec::EncodeF64Column(v.data(), v.size(), /*step=*/1e-3, &blob);

  colcodec::Cursor c{blob.data(), blob.data() + blob.size()};
  std::vector<double> out;
  double step_out = -1.0;
  ASSERT_TRUE(colcodec::DecodeF64Column(&c, v.size(), &out, &step_out).ok());
  ASSERT_EQ(out.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    if (std::isnan(v[i]))
      EXPECT_TRUE(std::isnan(out[i]));
    else
      EXPECT_EQ(out[i], v[i]) << "value " << i;
  }
}

TEST(ColumnCodec, IntColumnRoundTrips) {
  std::vector<int64_t> v = {0, 5, 5, 6, 100, 99, -3, 1ll << 40, 0};
  std::string blob;
  colcodec::EncodeIntColumn(v.data(), v.size(), &blob);
  colcodec::Cursor c{blob.data(), blob.data() + blob.size()};
  std::vector<int64_t> out;
  ASSERT_TRUE(colcodec::DecodeIntColumn(&c, v.size(), &out).ok());
  EXPECT_EQ(out, v);
}

TEST(ColumnCodec, DecodeRejectsCountMismatchAndTruncation) {
  std::vector<double> v(16, 2e-3);
  std::string blob;
  colcodec::EncodeF64Column(v.data(), v.size(), 1e-3, &blob);

  colcodec::Cursor wrong{blob.data(), blob.data() + blob.size()};
  std::vector<double> out;
  EXPECT_FALSE(colcodec::DecodeF64Column(&wrong, v.size() + 1, &out,
                                         nullptr).ok());
  for (const size_t len : {size_t{0}, size_t{3}, blob.size() - 1}) {
    colcodec::Cursor trunc{blob.data(), blob.data() + len};
    EXPECT_FALSE(colcodec::DecodeF64Column(&trunc, v.size(), &out,
                                           nullptr).ok())
        << "truncated to " << len;
  }
}

// --- the quantizer ---------------------------------------------------------

TEST(QuantizeStore, PreservesStructureAndBoundsError) {
  const Dataset ds = SmallDataset();
  for (const Method method : AllMethodsExtended()) {
    const RepresentationStore store = MakeStore(method, ds);
    StoreCodecOptions codec;
    codec.ab_step = 1e-3;
    codec.coeff_step = 1e-3;
    const auto quantized = QuantizeStore(store, codec);
    ASSERT_TRUE(quantized.ok()) << MethodName(method);

    EXPECT_TRUE(quantized->quantized());
    EXPECT_EQ(quantized->codec().ab_step, codec.ab_step);
    EXPECT_EQ(quantized->size(), store.size());
    // The segmentation, symbols and offset tables are preserved bit for
    // bit — only float values move, and by at most step / 2.
    EXPECT_EQ(quantized->seg_offsets(), store.seg_offsets());
    EXPECT_EQ(quantized->coeff_offsets(), store.coeff_offsets());
    EXPECT_EQ(quantized->symbol_offsets(), store.symbol_offsets());
    EXPECT_EQ(quantized->r_column(), store.r_column());
    EXPECT_EQ(quantized->symbol_column(), store.symbol_column());
    for (size_t i = 0; i < store.a_column().size(); ++i) {
      EXPECT_LE(std::abs(quantized->a_column()[i] - store.a_column()[i]),
                codec.ab_step / 2 + 1e-15)
          << MethodName(method);
      EXPECT_LE(std::abs(quantized->b_column()[i] - store.b_column()[i]),
                codec.ab_step / 2 + 1e-15)
          << MethodName(method);
    }
    for (size_t i = 0; i < store.coeff_column().size(); ++i)
      EXPECT_LE(std::abs(quantized->coeff_column()[i] -
                         store.coeff_column()[i]),
                codec.coeff_step / 2 + 1e-15)
          << MethodName(method);
  }
}

TEST(QuantizeStore, SlackBoundsFilterDriftForRandomQueries) {
  // The persisted contract: for EVERY query q and series i,
  // |LB(q, quant_i) - LB(q, orig_i)| <= lb_slack(i). Checked for both the
  // Dist_LB kernel and the Dist_PAR filter over random queries.
  const Dataset ds = SmallDataset(/*seed=*/21, /*length=*/96, /*count=*/20);
  Rng rng(77);
  for (const Method method : AllMethods()) {
    const RepresentationStore store = MakeStore(method, ds);
    StoreCodecOptions codec;
    codec.ab_step = 5e-2;  // coarse on purpose: real drift to bound
    codec.coeff_step = 5e-2;
    const auto quantized = QuantizeStore(store, codec);
    ASSERT_TRUE(quantized.ok()) << MethodName(method);

    const auto reducer = MakeReducer(method);
    DistanceScratch scratch;
    for (size_t qi = 0; qi < 6; ++qi) {
      std::vector<double> q = ds.series[rng.UniformInt(ds.size())].values;
      for (double& x : q) x += rng.Gaussian(0.0, 0.3);
      RepresentationStore query_store;
      reducer->ReduceInto(q, 12, &query_store);
      const RepView q_rep = query_store.view(0);
      const PrefixFitter fitter(q);
      for (size_t i = 0; i < store.size(); ++i) {
        const double slack = quantized->lb_slack(i);
        EXPECT_GE(slack, 0.0);
        EXPECT_LE(slack, quantized->max_lb_slack());
        const double lb0 =
            LowerBoundDistanceView(q_rep, store.view(i), &scratch);
        const double lb1 =
            LowerBoundDistanceView(q_rep, quantized->view(i), &scratch);
        EXPECT_LE(std::abs(lb1 - lb0), slack + 1e-9)
            << MethodName(method) << " LB, series " << i;
        const double f0 =
            FilterDistanceView(fitter, q_rep, store.view(i), &scratch);
        const double f1 =
            FilterDistanceView(fitter, q_rep, quantized->view(i), &scratch);
        EXPECT_LE(std::abs(f1 - f0), slack + 1e-9)
            << MethodName(method) << " filter, series " << i;
      }
    }
    // SAX carries no float columns, so quantization is free of drift.
    if (method == Method::kSax)
      EXPECT_EQ(quantized->max_lb_slack(), 0.0);
  }
}

TEST(QuantizeStore, QuantizingTwiceWithSameStepsIsIdentity) {
  const Dataset ds = SmallDataset();
  const RepresentationStore store = MakeStore(Method::kSapla, ds);
  StoreCodecOptions codec;
  codec.ab_step = 1e-3;
  codec.coeff_step = 1e-3;
  const auto once = QuantizeStore(store, codec);
  ASSERT_TRUE(once.ok());
  const auto twice = QuantizeStore(*once, codec);
  ASSERT_TRUE(twice.ok());
  EXPECT_TRUE(*twice == *once);
}

// --- store identity (the copy-aliasing regression) -------------------------

TEST(StoreIdentity, CopyTakesAFreshStoreId) {
  // Regression: the defaulted copy constructor used to duplicate
  // store_id_, so a copied corpus aliased the original's entries in the
  // serving result cache. Copies must keep the content and change the id.
  const Dataset ds = SmallDataset();
  const RepresentationStore store = MakeStore(Method::kSapla, ds);

  const RepresentationStore copied(store);
  EXPECT_TRUE(copied == store);
  EXPECT_NE(copied.id(), store.id());

  RepresentationStore assigned = MakeStore(Method::kPaa, ds);
  const uint64_t pre_assign_id = assigned.id();
  assigned = store;
  EXPECT_TRUE(assigned == store);
  EXPECT_NE(assigned.id(), store.id());
  EXPECT_NE(assigned.id(), copied.id());
  EXPECT_NE(assigned.id(), pre_assign_id);

  // Self-assignment keeps content intact.
  RepresentationStore self = store;
  self = *&self;
  EXPECT_TRUE(self == store);

  // Reset also re-keys.
  RepresentationStore reset_me = store;
  const uint64_t before_reset = reset_me.id();
  reset_me.Reset();
  EXPECT_NE(reset_me.id(), before_reset);
  EXPECT_TRUE(reset_me.empty());
}

// --- v4 persistence --------------------------------------------------------

RepresentationStore QuantizedStore(Method method, const Dataset& ds) {
  StoreCodecOptions codec;
  codec.ab_step = 1e-3;
  codec.coeff_step = 1e-3;
  auto q = QuantizeStore(MakeStore(method, ds), codec);
  EXPECT_TRUE(q.ok());
  return std::move(q).ValueOrDie();
}

TEST(StoreV4, SaveLoadSaveIsByteIdentical) {
  const Dataset ds = SmallDataset();
  for (const Method method : AllMethods()) {
    const RepresentationStore store = QuantizedStore(method, ds);
    const std::string once = SerializeRepresentationStore(store);
    // kAuto picks v4 for a quantized store (v3 cannot carry the slack).
    ASSERT_GE(once.size(), 12u);
    EXPECT_EQ(once[8], 4) << MethodName(method);
    const auto loaded = ParseRepresentationStore(once);
    ASSERT_TRUE(loaded.ok())
        << MethodName(method) << ": " << loaded.status().ToString();
    EXPECT_TRUE(*loaded == store) << MethodName(method);
    EXPECT_TRUE(loaded->quantized());
    for (size_t i = 0; i < store.size(); ++i)
      EXPECT_EQ(loaded->lb_slack(i), store.lb_slack(i));
    EXPECT_EQ(SerializeRepresentationStore(*loaded), once)
        << MethodName(method);
  }
}

TEST(StoreV4, UnquantizedStoresStayOnV3UnderAuto) {
  const Dataset ds = SmallDataset();
  const RepresentationStore store = MakeStore(Method::kSapla, ds);
  const std::string bytes = SerializeRepresentationStore(store);
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(bytes[8], 3);
}

TEST(StoreV4, MigratesEveryOlderRevision) {
  // v1 text, hand-rolled v2, v3 and forced-v4 bytes of the same corpus all
  // load to equal stores, and re-saving any of them as v4 round-trips.
  const Dataset ds = SmallDataset();
  const RepresentationStore store = MakeStore(Method::kSapla, ds);

  std::string v1;
  for (size_t i = 0; i < store.size(); ++i) v1 += RepText(store, i);

  // The v2 writer from before checksums existed (see store_io_test.cc).
  std::string v2 = "SAPLACOL";
  const auto put = [&v2](const auto& v) {
    v2.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto put_array = [&v2](const auto& vec) {
    if (!vec.empty())
      v2.append(reinterpret_cast<const char*>(vec.data()),
                vec.size() * sizeof(vec[0]));
  };
  const auto pad8 = [&v2] {
    while (v2.size() % 8 != 0) v2.push_back('\0');
  };
  put(uint32_t{2});
  const std::string name = MethodName(store.method());
  put(static_cast<uint32_t>(name.size()));
  v2 += name;
  pad8();
  put(uint64_t{store.series_length()});
  put(uint64_t{store.alphabet()});
  put(uint64_t{store.size()});
  put(uint64_t{store.a_column().size()});
  put(uint64_t{store.coeff_column().size()});
  put(uint64_t{store.symbol_column().size()});
  put_array(store.seg_offsets());
  put_array(store.coeff_offsets());
  put_array(store.symbol_offsets());
  put_array(store.a_column());
  put_array(store.b_column());
  put_array(store.r_column());
  pad8();
  put_array(store.coeff_column());
  put_array(store.symbol_column());
  pad8();

  const std::string v3 =
      SerializeRepresentationStore(store, StoreFormat::kV3);
  const std::string v4 =
      SerializeRepresentationStore(store, StoreFormat::kV4);
  ASSERT_NE(v3, v4);

  const std::vector<std::pair<const char*, const std::string*>> archives = {
      {"v1", &v1}, {"v2", &v2}, {"v3", &v3}, {"v4", &v4}};
  for (const auto& [label, bytes] : archives) {
    const auto loaded = ParseRepresentationStore(*bytes);
    ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
    EXPECT_TRUE(*loaded == store) << label;
    EXPECT_FALSE(loaded->quantized()) << label;
    // Migration: re-serializing any revision as v4 lands on the same
    // canonical v4 bytes.
    EXPECT_EQ(SerializeRepresentationStore(*loaded, StoreFormat::kV4), v4)
        << label;
  }
}

TEST(StoreV4, RejectsLossyStoreOnV3) {
  const Dataset ds = SmallDataset();
  const RepresentationStore store = QuantizedStore(Method::kSapla, ds);
  // v3 has no codec section; serializing a quantized store as v3 would
  // silently drop the slack, so the writer refuses via kAuto -> v4. A
  // direct kV3 request keeps the columns but must not claim quantization:
  // the loaded store is unquantized data equal to the decoded values.
  const std::string v3 =
      SerializeRepresentationStore(store, StoreFormat::kV3);
  const auto loaded = ParseRepresentationStore(v3);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->quantized());
  EXPECT_EQ(loaded->a_column(), store.a_column());
}

TEST(StoreV4, SurvivesSeededCorruptionSweep) {
  // Single-bit flips and truncations over a v4 archive: nothing crashes,
  // and nothing loads OK as a store that differs from the original (every
  // section, including the new codec/slack sections, is CRC-covered).
  const Dataset ds = SmallDataset();
  const RepresentationStore store = QuantizedStore(Method::kSapla, ds);
  const std::string v4 = SerializeRepresentationStore(store);
  ASSERT_GT(v4.size(), 64u);

  uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  size_t rejected = 0;
  for (size_t trial = 0; trial < 1200; ++trial) {
    std::string bad = v4;
    const size_t byte = next() % bad.size();
    bad[byte] ^= static_cast<char>(1u << (next() % 8));
    const auto loaded = ParseRepresentationStore(bad);
    if (!loaded.ok()) {
      ++rejected;
      continue;
    }
    EXPECT_TRUE(*loaded == store)
        << "bit flip at byte " << byte << " loaded a different store";
  }
  // The CRCs cover essentially the whole file; almost every flip must be
  // caught structurally.
  EXPECT_GT(rejected, 1100u);

  for (size_t len = 0; len < v4.size(); len += 7) {
    const auto loaded = ParseRepresentationStore(v4.substr(0, len));
    EXPECT_FALSE(loaded.ok()) << "truncated to " << len;
  }
}

// --- the cold tier ---------------------------------------------------------

RepresentationStore BigStore(size_t count, Method method = Method::kSapla) {
  const Dataset ds = SmallDataset(/*seed=*/5, /*length=*/64, count);
  return MakeStore(method, ds, /*m=*/8);
}

TEST(ColdStore, ViewsMatchHotBitForBit) {
  // > one frame of series so the cold tier actually crosses frames.
  const size_t kCount = storedetail::kDefaultFrameSeries * 2 + 37;
  const RepresentationStore hot = BigStore(kCount);
  const std::string path = TestPath("store_codec_cold.bin");
  ASSERT_TRUE(
      SaveRepresentationStore(path, hot, StoreFormat::kV4).ok());

  const auto cold = OpenColdRepresentationStore(path);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold->cold());
  EXPECT_EQ(cold->size(), hot.size());
  EXPECT_EQ(cold->method(), hot.method());
  EXPECT_EQ(cold->series_length(), hot.series_length());

  StoreReadPin pin;
  for (size_t i = 0; i < hot.size(); ++i) {
    const RepView c = cold->view(i, &pin);
    const RepView h = hot.view(i);
    ASSERT_EQ(c.num_segments(), h.num_segments()) << i;
    for (size_t s = 0; s < h.num_segments(); ++s) {
      EXPECT_EQ(c.seg_a(s), h.seg_a(s)) << i;
      EXPECT_EQ(c.seg_b(s), h.seg_b(s)) << i;
      EXPECT_EQ(c.seg_r(s), h.seg_r(s)) << i;
    }
    // ToRepresentation works on both tiers and must agree exactly.
    EXPECT_EQ(RepText(*cold, i), RepText(hot, i)) << i;
  }

  const StoreFootprint fp = cold->footprint();
  EXPECT_GT(fp.mapped_bytes, 0u);
  EXPECT_GT(fp.frame_misses, 0u);
  // The sequential scan re-used the pin: one miss per frame, not per id.
  EXPECT_LE(fp.frame_misses, kCount / storedetail::kDefaultFrameSeries + 2);
  std::remove(path.c_str());
}

TEST(ColdStore, TinyCacheEvictsAndStaysCorrect) {
  const size_t kCount = storedetail::kDefaultFrameSeries * 3 + 5;
  const RepresentationStore hot = BigStore(kCount);
  const std::string path = TestPath("store_codec_cold_tiny.bin");
  ASSERT_TRUE(
      SaveRepresentationStore(path, hot, StoreFormat::kV4).ok());

  ColdStoreOptions opt;
  opt.cache_bytes = 1;  // at most one frame ever stays resident
  const auto cold = OpenColdRepresentationStore(path, opt);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Ping-pong across frame boundaries: every touch is a miss, yet every
  // view stays bit-identical to the hot store.
  Rng rng(4242);
  StoreReadPin pin;
  for (size_t trial = 0; trial < 200; ++trial) {
    const size_t id = rng.UniformInt(kCount);
    const RepView c = cold->view(id, &pin);
    const RepView h = hot.view(id);
    ASSERT_EQ(c.num_segments(), h.num_segments());
    for (size_t s = 0; s < h.num_segments(); ++s)
      ASSERT_EQ(c.seg_a(s), h.seg_a(s));
  }
  const StoreFootprint fp = cold->footprint();
  EXPECT_GT(fp.frame_misses, 3u);
  // A 1-byte budget keeps at most one decoded frame resident, so the
  // resident side stays far below the mapped archive.
  EXPECT_LT(fp.resident_bytes, fp.mapped_bytes);
  std::remove(path.c_str());
}

TEST(ColdStore, ConcurrentReadersAgreeWithHot) {
  const size_t kCount = storedetail::kDefaultFrameSeries * 2 + 11;
  const RepresentationStore hot = BigStore(kCount);
  const std::string path = TestPath("store_codec_cold_mt.bin");
  ASSERT_TRUE(
      SaveRepresentationStore(path, hot, StoreFormat::kV4).ok());

  ColdStoreOptions opt;
  opt.cache_bytes = 1;  // maximum eviction pressure
  const auto cold = OpenColdRepresentationStore(path, opt);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      StoreReadPin pin;  // one pin per thread, never shared
      for (size_t trial = 0; trial < 400; ++trial) {
        const size_t id = rng.UniformInt(kCount);
        const RepView c = cold->view(id, &pin);
        const RepView h = hot.view(id);
        if (c.num_segments() != h.num_segments()) {
          ++mismatches;
          continue;
        }
        for (size_t s = 0; s < h.num_segments(); ++s)
          if (c.seg_a(s) != h.seg_a(s) || c.seg_b(s) != h.seg_b(s) ||
              c.seg_r(s) != h.seg_r(s))
            ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  std::remove(path.c_str());
}

TEST(ColdStore, QuantizedColdStoreKeepsSlackResident)
{
  const size_t kCount = storedetail::kDefaultFrameSeries + 9;
  const Dataset ds = SmallDataset(/*seed=*/5, /*length=*/64, kCount);
  StoreCodecOptions codec;
  codec.ab_step = 1e-3;
  codec.coeff_step = 1e-3;
  const auto quantized = QuantizeStore(MakeStore(Method::kSapla, ds, 8),
                                       codec);
  ASSERT_TRUE(quantized.ok());
  const std::string path = TestPath("store_codec_cold_q.bin");
  ASSERT_TRUE(SaveRepresentationStore(path, *quantized).ok());

  const auto cold = OpenColdRepresentationStore(path);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold->quantized());
  // The slack column answers without touching any frame.
  const uint64_t misses_before = cold->footprint().frame_misses;
  for (size_t i = 0; i < kCount; ++i)
    EXPECT_EQ(cold->lb_slack(i), quantized->lb_slack(i)) << i;
  EXPECT_EQ(cold->max_lb_slack(), quantized->max_lb_slack());
  EXPECT_EQ(cold->footprint().frame_misses, misses_before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sapla
