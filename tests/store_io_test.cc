// v2 binary columnar persistence: round-trip equality, byte-identical
// re-serialization, v1 -> v2 migration, and corrupt-input rejection.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/sapla.h"
#include "reduction/representation_store.h"
#include "ts/io.h"
#include "ts/synthetic_archive.h"
#include "test_tmpdir.h"

namespace sapla {
namespace {

Dataset SmallDataset() {
  SyntheticOptions opt;
  opt.length = 96;
  opt.num_series = 10;
  return MakeSyntheticDataset(9, opt);
}

RepresentationStore MakeStore(Method method, size_t m = 12) {
  const Dataset ds = SmallDataset();
  const auto reducer = MakeReducer(method);
  RepresentationStore store;
  for (const TimeSeries& ts : ds.series)
    reducer->ReduceInto(ts.values, m, &store);
  return store;
}

TEST(StoreIo, RoundTripsEveryMethod) {
  for (const Method method : AllMethods()) {
    const RepresentationStore store = MakeStore(method);
    const std::string data = SerializeRepresentationStore(store);
    const auto loaded = ParseRepresentationStore(data);
    ASSERT_TRUE(loaded.ok())
        << MethodName(method) << ": " << loaded.status().ToString();
    EXPECT_TRUE(*loaded == store) << MethodName(method);
  }
}

TEST(StoreIo, ReserializationIsByteIdentical) {
  for (const Method method : AllMethods()) {
    const RepresentationStore store = MakeStore(method);
    const std::string once = SerializeRepresentationStore(store);
    const auto loaded = ParseRepresentationStore(once);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(SerializeRepresentationStore(*loaded), once)
        << MethodName(method);
  }
}

TEST(StoreIo, FileRoundTrip) {
  const RepresentationStore store = MakeStore(Method::kSapla);
  const std::string path = TestPath("store_io_test.bin");
  ASSERT_TRUE(SaveRepresentationStore(path, store).ok());
  const auto loaded = LoadRepresentationStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == store);
  std::remove(path.c_str());
}

TEST(StoreIo, MigratesV1TextArchives) {
  // A homogeneous v1 text archive loads as a store transparently — the
  // migration path for pre-columnar artifacts.
  const RepresentationStore store = MakeStore(Method::kSapla);
  std::string v1_text;
  for (size_t i = 0; i < store.size(); ++i)
    v1_text += SerializeRepresentation(store.ToRepresentation(i));
  const auto migrated = ParseRepresentationStore(v1_text);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_TRUE(*migrated == store);
}

TEST(StoreIo, RejectsHeterogeneousV1Archives) {
  const Dataset ds = SmallDataset();
  std::string v1_text;
  v1_text += SerializeRepresentation(
      MakeReducer(Method::kSapla)->Reduce(ds.series[0].values, 12));
  v1_text += SerializeRepresentation(
      MakeReducer(Method::kPaa)->Reduce(ds.series[1].values, 12));
  EXPECT_FALSE(ParseRepresentationStore(v1_text).ok());
}

TEST(StoreIo, LoadedStoreGetsFreshIdentity) {
  // Persistence captures content, not identity: two loads of the same
  // bytes are equal stores with distinct ids (the serve cache must never
  // alias them with a live corpus).
  const RepresentationStore store = MakeStore(Method::kSapla);
  const std::string data = SerializeRepresentationStore(store);
  const auto a = ParseRepresentationStore(data);
  const auto b = ParseRepresentationStore(data);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
  EXPECT_NE(a->id(), b->id());
  EXPECT_NE(a->id(), store.id());
}

TEST(StoreIo, RejectsCorruptInput) {
  const RepresentationStore store = MakeStore(Method::kSapla);
  const std::string good = SerializeRepresentationStore(store);

  EXPECT_FALSE(ParseRepresentationStore("").ok());
  EXPECT_FALSE(ParseRepresentationStore("garbage bytes").ok());
  // Truncations at every section boundary-ish length.
  for (const size_t len : {size_t{4}, size_t{8}, size_t{16}, size_t{40},
                           good.size() / 2, good.size() - 1}) {
    EXPECT_FALSE(ParseRepresentationStore(good.substr(0, len)).ok())
        << "truncated to " << len;
  }
  // Trailing junk.
  EXPECT_FALSE(ParseRepresentationStore(good + "x").ok());
  // Unsupported version.
  std::string bad_version = good;
  bad_version[8] = 99;
  EXPECT_FALSE(ParseRepresentationStore(bad_version).ok());
  // Since v3 every section carries a CRC32C, so a byte flip anywhere in the
  // body is detected outright — no silent different-but-valid loads.
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x5A;
  const auto mutated = ParseRepresentationStore(flipped);
  ASSERT_FALSE(mutated.ok());
  EXPECT_NE(mutated.status().message().find("checksum"), std::string::npos)
      << mutated.status().ToString();
}

TEST(StoreIo, LegacyV2FilesWithoutChecksumsStillLoad) {
  // Old archives written before checksums existed must keep loading. The
  // v2 writer is re-created here byte for byte: same sections as v3 but
  // no flags/CRC/reserved words, with padding aligned to v2's own offsets
  // (the body cannot be lifted from a v3 file — the 20-byte shorter
  // prefix changes where the 8-byte alignment pads fall).
  const RepresentationStore store = MakeStore(Method::kSapla);
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

  const auto loaded = ParseRepresentationStore(v2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == store);
}

// Seeded corruption sweep: >1000 single-bit flips and truncations over a v3
// binary archive and a v1 text archive. The invariant is the robustness
// contract of the readers — no mutation may crash, every CRC-covered flip
// is rejected with a descriptive status, and nothing ever loads OK as a
// store that differs from the original.
TEST(StoreIo, SurvivesThousandsOfSeededMutations) {
  const RepresentationStore store = MakeStore(Method::kSapla);
  const std::string v3 = SerializeRepresentationStore(store);
  ASSERT_GT(v3.size(), 64u);

  uint64_t state = 0x2545F4914F6CDD1Dull;  // fixed seed: replayable run
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  size_t mutations = 0;
  auto check_flip = [&](size_t byte, int bit) {
    std::string bad = v3;
    bad[byte] ^= static_cast<char>(1u << bit);
    const auto loaded = ParseRepresentationStore(bad);
    ++mutations;
    // Bytes 28..31 are the reserved word — the only bytes no check covers;
    // flipping them must load the identical store. Everything else (magic,
    // version, flags, the CRC words themselves, and all CRC-covered body
    // bytes) must be rejected.
    if (byte >= 28 && byte < 32) {
      ASSERT_TRUE(loaded.ok()) << "reserved-word flip at byte " << byte
                               << " rejected: " << loaded.status().ToString();
      EXPECT_TRUE(*loaded == store);
    } else {
      ASSERT_FALSE(loaded.ok())
          << "bit flip at byte " << byte << " bit " << bit
          << " loaded successfully despite section checksums";
      EXPECT_FALSE(loaded.status().message().empty());
    }
  };

  // Exhaustive over the header/CRC machinery, random across the body.
  for (size_t byte = 0; byte < 64; ++byte)
    for (int bit = 0; bit < 8; ++bit) check_flip(byte, bit);
  for (int round = 0; round < 500; ++round)
    check_flip(next() % v3.size(), static_cast<int>(next() % 8));

  // Truncations: every proper prefix must be rejected, never crash.
  for (size_t len = 0; len < 48; ++len) {
    EXPECT_FALSE(ParseRepresentationStore(v3.substr(0, len)).ok())
        << "truncated to " << len;
    ++mutations;
  }
  for (int round = 0; round < 100; ++round) {
    const size_t len = next() % v3.size();
    EXPECT_FALSE(ParseRepresentationStore(v3.substr(0, len)).ok())
        << "truncated to " << len;
    ++mutations;
  }

  // v1 text has no checksums, so a flip may still parse (possibly to
  // different values) — the contract there is "never crash, fail with a
  // message"; nothing should load as an unequal store claiming equality.
  std::string v1_text;
  for (size_t i = 0; i < store.size(); ++i)
    v1_text += SerializeRepresentation(store.ToRepresentation(i));
  for (int round = 0; round < 300; ++round) {
    std::string bad = v1_text;
    bad[next() % bad.size()] ^= static_cast<char>(1u << (next() % 8));
    const auto loaded = ParseRepresentationStore(bad);
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty());
    }
    ++mutations;
  }

  EXPECT_GE(mutations, 1000u);
}

TEST(StoreIo, EmptyStoreRoundTrips) {
  const RepresentationStore empty;
  const std::string data = SerializeRepresentationStore(empty);
  const auto loaded = ParseRepresentationStore(data);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
}

}  // namespace
}  // namespace sapla
