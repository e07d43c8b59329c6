#ifndef SAPLA_SEARCH_SNAPSHOT_H_
#define SAPLA_SEARCH_SNAPSHOT_H_

// Index snapshots: warm restart for a built SimilarityIndex.
//
// A snapshot persists everything a shard needs to serve without rebuilding:
// the columnar RepresentationStore (v3 CRC'd format, ts/io.h) plus the
// built tree structure (IndexBackend::SerializeTree), wrapped in a CRC'd
// container written through AtomicWriteFile. Loading re-attaches the raw
// dataset (which the snapshot does NOT contain — raw series stay in their
// own archive), verifies a fingerprint so a snapshot can never be glued to
// the wrong corpus, and restores the tree without re-reducing a single
// series or re-running a single insertion.
//
// Container format ("SAPLASNP", version 1, little-endian):
//   magic "SAPLASNP" (8 bytes), u32 version = 1, u32 flags = 0,
//   u32 crc_meta, u32 crc_store, u32 crc_tree, u32 reserved = 0,
//   -- meta section (crc_meta) --
//   method name (u32 len + bytes), index kind name (u32 len + bytes),
//   u64 m, u64 dataset_size, u64 series_length, u64 dataset_fingerprint,
//   u64 store_bytes_len, u64 tree_bytes_len,
//   -- store section (crc_store): SerializeRepresentationStore bytes --
//   -- tree section (crc_tree): backend tree bytes (may be empty) --
// Every section is CRC32C-checked before a byte of it is interpreted, so
// torn writes and bit flips surface as InvalidArgument, never as a
// corrupted index. An empty tree section is valid (a backend without
// SerializeTree support): the loader then rebuilds the tree by Build's
// serial id-order insertion — identical shape, O(n) insert work.
//
// Determinism: loading a snapshot yields an index that answers every query
// bit-identically to the one that saved it (same store, same tree, same
// traversal). The restored store gets a fresh process-unique id, so
// corpus_id() changes across a restore and serve-cache entries from the
// old process can never alias the new corpus.

#include <cstdint>
#include <memory>
#include <string>

#include "reduction/column_codec.h"
#include "search/knn.h"
#include "ts/io.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace sapla {

/// Order- and content-sensitive fingerprint of a dataset's raw series
/// (CRC32C over the value bytes, mixed with size and length). Loading
/// verifies it so a snapshot saved over one corpus is rejected against
/// any other.
uint64_t DatasetFingerprint(const Dataset& dataset);

/// Controls how a snapshot's store section is written.
struct SnapshotWriteOptions {
  /// When non-lossless (a positive step set), the store is quantized
  /// through QuantizeStore before serialization: coefficients snap to the
  /// step grid and the per-series lower-bound slack is recorded, so the
  /// loaded index still never drops a true neighbor (its exact distances
  /// are refined from the raw dataset and answers stay id-identical;
  /// only pruning counters may differ). Default: lossless passthrough.
  StoreCodecOptions codec;
  /// On-disk store revision; kAuto writes v4 exactly when the (possibly
  /// quantized) store is quantized. Force kV4 to make an unquantized
  /// snapshot cold-loadable (cold residency needs the framed v4 layout).
  StoreFormat store_format = StoreFormat::kAuto;
};

/// Controls how a snapshot's store section is loaded.
struct SnapshotLoadOptions {
  /// Serve the store COLD: mmap the snapshot's store section and decode
  /// frames lazily into a bounded cache instead of materializing every
  /// column resident. Requires a v4 store section (see
  /// SnapshotWriteOptions::store_format). The tree section still loads
  /// resident.
  bool cold_store = false;
  /// Cold decode-cache capacity (at least one frame is always retained).
  size_t cold_cache_bytes = 64u << 20;
  /// Optional shared frame-cache budget for the cold tier: pass the same
  /// handle to every shard's Restore so the fleet's decoded frames are
  /// bounded globally instead of `shards × cold_cache_bytes`.
  std::shared_ptr<ResourceBudget> cold_budget;
};

/// Persists `index` (built, columnar corpus) to `path` atomically.
/// Fails with InvalidArgument on an unbuilt index; IO
/// failures come back from AtomicWriteFile with the failing step named.
Status SaveIndexSnapshot(const std::string& path, const SimilarityIndex& index,
                         const SnapshotWriteOptions& options = {});

/// Restores `index` from the snapshot at `path`, attaching `dataset` as
/// the raw corpus. `index` must be freshly constructed with the same
/// (method, m, kind) the snapshot was saved with — mismatches, fingerprint
/// mismatches and corruption are all rejected with InvalidArgument before
/// the index is touched. On success the index serves bit-identical answers
/// to the one that saved the snapshot, under a fresh corpus_id (for a
/// snapshot written with a lossy codec, answers are id- and
/// distance-identical to the pre-quantization index; pruning counters may
/// differ).
Status LoadIndexSnapshot(const std::string& path, const Dataset& dataset,
                         SimilarityIndex* index,
                         const SnapshotLoadOptions& options = {});

}  // namespace sapla

#endif  // SAPLA_SEARCH_SNAPSHOT_H_
