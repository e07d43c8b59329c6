#include "search/snapshot.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "index/index_backend.h"
#include "obs/trace.h"
#include "reduction/representation.h"
#include "ts/io.h"
#include "util/binio.h"
#include "util/crc32c.h"

namespace sapla {
namespace {

constexpr char kSnapshotMagic[8] = {'S', 'A', 'P', 'L', 'A', 'S', 'N', 'P'};
constexpr uint32_t kSnapshotVersion = 1;

Status Bad(const std::string& what) {
  return Status::InvalidArgument("index snapshot: " + what);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open \"" + path + "\" for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof())
    return Status::IOError("read failed for \"" + path + "\"");
  return std::move(buf).str();
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& dataset) {
  uint32_t crc = 0;
  for (const TimeSeries& ts : dataset.series)
    crc = Crc32cExtend(crc, ts.values.data(),
                       ts.values.size() * sizeof(double));
  // Mix the shape in so e.g. one 2n-point series and two n-point series
  // with identical bytes do not collide.
  return (static_cast<uint64_t>(dataset.size()) * 0x9E3779B97F4A7C15ULL) ^
         (static_cast<uint64_t>(dataset.length()) << 32) ^ crc;
}

Status SaveIndexSnapshot(const std::string& path, const SimilarityIndex& index,
                         const SnapshotWriteOptions& options) {
  SAPLA_TRACE_SPAN("snapshot/save");
  if (index.dataset() == nullptr) return Bad("index is not built");
  if (index.store().size() != index.dataset_size())
    return Bad("store does not cover the dataset");

  std::string store_bytes;
  if (options.codec.lossless()) {
    store_bytes =
        SerializeRepresentationStore(index.store(), options.store_format);
  } else {
    // Lossy compression happens at snapshot time, never in the serving
    // index: quantize a copy, record its slack, and persist that.
    Result<RepresentationStore> quantized =
        QuantizeStore(index.store(), options.codec);
    if (!quantized.ok()) return quantized.status();
    store_bytes = SerializeRepresentationStore(
        std::move(quantized).ValueOrDie(), options.store_format);
  }
  // Unimplemented tree serialization is not an error: the snapshot simply
  // omits the tree and the loader re-inserts.
  std::string tree_bytes;
  Result<std::string> tree = index.backend()->SerializeTree();
  if (tree.ok()) {
    tree_bytes = std::move(tree).ValueOrDie();
  } else if (tree.status().code() != StatusCode::kUnimplemented) {
    return tree.status();
  }

  std::string meta;
  binio::PutString(&meta, MethodName(index.method()));
  binio::PutString(&meta, IndexKindName(index.kind()));
  binio::PutU64(&meta, index.m());
  binio::PutU64(&meta, index.dataset_size());
  binio::PutU64(&meta, index.series_length());
  binio::PutU64(&meta, DatasetFingerprint(*index.dataset()));
  binio::PutU64(&meta, store_bytes.size());
  binio::PutU64(&meta, tree_bytes.size());

  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  binio::PutU32(&out, kSnapshotVersion);
  binio::PutU32(&out, 0);  // flags
  binio::PutU32(&out, Crc32c(meta));
  binio::PutU32(&out, Crc32c(store_bytes));
  binio::PutU32(&out, Crc32c(tree_bytes));
  binio::PutU32(&out, 0);  // reserved
  out += meta;
  out += store_bytes;
  out += tree_bytes;
  return AtomicWriteFile(path, out);
}

Status LoadIndexSnapshot(const std::string& path, const Dataset& dataset,
                         SimilarityIndex* index,
                         const SnapshotLoadOptions& options) {
  SAPLA_TRACE_SPAN("snapshot/load");
  Result<std::string> file = ReadFileBytes(path);
  if (!file.ok()) return file.status();
  const std::string bytes = std::move(file).ValueOrDie();

  if (bytes.size() < sizeof(kSnapshotMagic) + 6 * 4 ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0)
    return Bad("bad magic (not a SAPLASNP file)");
  binio::Reader r(bytes);
  (void)r.ReadBytes(sizeof(kSnapshotMagic));
  const uint32_t version = r.ReadU32();
  if (version != kSnapshotVersion)
    return Bad("unsupported version " + std::to_string(version));
  // flags and reserved must be zero in version 1; anything else is either
  // a future format or corruption, and both reject (every header byte is
  // then covered by some check — the bit-flip fuzz test relies on it).
  const uint32_t flags = r.ReadU32();
  if (flags != 0) return Bad("unsupported flags " + std::to_string(flags));
  const uint32_t crc_meta = r.ReadU32();
  const uint32_t crc_store = r.ReadU32();
  const uint32_t crc_tree = r.ReadU32();
  const uint32_t reserved = r.ReadU32();
  if (reserved != 0) return Bad("nonzero reserved header field");

  // The meta section has a fixed wire size except the two names; read its
  // fields through the checked Reader, then verify the section CRC over
  // the exact consumed span.
  const size_t meta_begin = r.consumed();
  const std::string method_name = r.ReadString();
  const std::string kind_name = r.ReadString();
  const uint64_t m = r.ReadU64();
  const uint64_t dataset_size = r.ReadU64();
  const uint64_t series_length = r.ReadU64();
  const uint64_t fingerprint = r.ReadU64();
  const uint64_t store_len = r.ReadU64();
  const uint64_t tree_len = r.ReadU64();
  if (!r.ok()) return Bad("truncated meta section");
  const size_t meta_end = r.consumed();
  if (Crc32c(bytes.data() + meta_begin, meta_end - meta_begin) != crc_meta)
    return Bad("meta section checksum mismatch");

  if (method_name != MethodName(index->method()))
    return Bad("method mismatch: snapshot has " + method_name +
               ", index expects " + MethodName(index->method()));
  if (kind_name != IndexKindName(index->kind()))
    return Bad("index kind mismatch: snapshot has " + kind_name +
               ", index expects " + IndexKindName(index->kind()));
  if (m != index->m()) return Bad("coefficient budget mismatch");
  if (dataset_size != dataset.size() || series_length != dataset.length())
    return Bad("dataset shape mismatch");
  if (fingerprint != DatasetFingerprint(dataset))
    return Bad("dataset fingerprint mismatch (snapshot belongs to a "
               "different corpus)");

  const size_t store_begin = r.consumed();
  const std::string store_bytes = r.ReadBytes(store_len);
  const std::string tree_bytes = r.ReadBytes(tree_len);
  if (!r.ok() || r.remaining() != 0) return Bad("section length mismatch");
  if (Crc32c(store_bytes) != crc_store)
    return Bad("store section checksum mismatch");
  if (Crc32c(tree_bytes) != crc_tree)
    return Bad("tree section checksum mismatch");

  Result<RepresentationStore> store =
      options.cold_store
          // Cold: re-map the validated store section straight from the
          // file — only the directory/slack metadata goes resident, and
          // frames decode lazily. (The full-file read above is transient
          // load-time memory; steady-state residency is what cold bounds.)
          ? OpenColdRepresentationStoreAt(
                path, store_begin, static_cast<size_t>(store_len),
                ColdStoreOptions{options.cold_cache_bytes,
                                 options.cold_budget})
          : ParseRepresentationStore(store_bytes);
  if (!store.ok()) return store.status();
  return index->RestoreFromStore(dataset, std::move(store).ValueOrDie(),
                                 tree_bytes);
}

}  // namespace sapla
