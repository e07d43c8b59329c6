#ifndef SAPLA_SEARCH_SHARDED_INDEX_H_
#define SAPLA_SEARCH_SHARDED_INDEX_H_

// Sharded similarity index: horizontal partitioning with a deterministic
// merge.
//
// The corpus is split into N contiguous id ranges by the same deterministic
// chunking ParallelFor uses (util/parallel.h ParallelChunk), one
// SimilarityIndex per range. Queries scatter to every healthy shard on the
// shared thread pool and the per-shard answers merge under the established
// (distance, id) tie-break. Because each shard searches its subset exactly,
// the union of per-shard top-k contains the global top-k; sorting the union
// and truncating to k reproduces the single-index answer bit-identically —
// same ids, same distances — at every shard count.
//
// Counters contract: the merged SearchCounters are the field-wise sum of
// the per-shard counters (obs/counters.h Add; cascade_stage is the max).
// With num_shards == 1 the single shard holds the whole corpus, its tree is
// built by the identical serial insertion, and the merged result — counters
// included — is bit-identical to a standalone SimilarityIndex. With more
// shards the ids and distances stay bit-identical while the node-level
// counters reflect the N smaller trees actually traversed (N trees cannot
// have the shape of one big tree); the sum is itself deterministic and
// preserves the per-query invariants (lb = exact + pruned_leaf, etc.).
//
// Generations and live swap: each shard serves one immutable Generation (a
// shard-local Dataset copy + its built index) published through a
// shared_ptr. A query pins the generations of every shard once, up front,
// so a concurrent swap never mixes generations within one query. Swapping
// (RebuildShard / RestoreShard) builds the next generation off to the side
// and publishes it with one pointer store; readers either see the old one
// (kept alive by their pin) or the new one, never a torn state. Every new
// generation gets a fresh store id, so corpus_id() — a mix of the per-shard
// ids — changes and serve-cache entries from the old generation can never
// be returned (serve/result_cache.h keys on it).
//
// Health: each shard carries a ShardHealth knob (degradation ladder at
// shard granularity, docs/ROBUSTNESS.md). A degraded shard contributes
// lower-bound-only candidates; an unhealthy shard is excluded from the
// scatter. Either marks the merged answer approximate=true — one sick
// shard degrades its slice of the corpus instead of poisoning the fleet.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "search/knn.h"
#include "search/search_index.h"
#include "search/snapshot.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace sapla {

/// \brief N SimilarityIndex shards behind the SearchIndex interface.
class ShardedIndex : public SearchIndex {
 public:
  struct Options {
    /// Number of shards; clamped to [1, dataset size] at Build.
    size_t num_shards = 1;
    /// Per-shard index options (fill factors). dbch_sound_bounds is forced
    /// on: partition-invariant answers require exact per-shard search,
    /// which DBCH's default §5.3 heuristic cannot provide.
    SimilarityIndex::Options index;
  };

  // Two overloads instead of a defaulted Options argument: a nested class
  // with default member initializers cannot appear in a default argument
  // inside its enclosing class.
  ShardedIndex(Method method, size_t m, IndexKind kind);
  ShardedIndex(Method method, size_t m, IndexKind kind,
               const Options& options);
  ~ShardedIndex() override;

  /// Partitions `dataset` into contiguous id ranges and builds one shard
  /// per range. Each shard copies its slice, so `dataset` need not outlive
  /// the index. Shards build sequentially; each build's reduction fans
  /// across the pool internally.
  Status Build(const Dataset& dataset);

  /// Deterministic global-id range [lo, hi) owned by `shard`.
  std::pair<size_t, size_t> ShardRange(size_t shard) const;

  /// Saves every shard's snapshot (search/snapshot.h) under
  /// ShardSnapshotPath(prefix, shard), atomically per file.
  /// `write_options` applies per shard: a lossy codec writes quantized v4
  /// store sections (answers stay id-identical after reload; see
  /// SnapshotWriteOptions).
  Status SaveSnapshots(const std::string& prefix,
                       const SnapshotWriteOptions& write_options = {}) const;

  /// "<prefix>.shard<shard>.snp" — where SaveSnapshots puts shard files.
  static std::string ShardSnapshotPath(const std::string& prefix,
                                       size_t shard);

  /// Warm restart: partitions `dataset` exactly as Build would, then
  /// restores every shard from its snapshot instead of rebuilding.
  /// Topology (shard count, ranges, method, m, kind) must match the saved
  /// one; any mismatch or corruption rejects the whole restore.
  /// `load_options.cold_store` serves every shard's store mmap-backed
  /// (requires v4 store sections).
  Status Restore(const Dataset& dataset, const std::string& prefix,
                 const SnapshotLoadOptions& load_options = {});

  /// Live swap: rebuilds `shard`'s generation from its retained slice and
  /// publishes it atomically under running queries. The shard's corpus id
  /// (hence corpus_id()) changes; in-flight queries finish on the pinned
  /// old generation. Also resets the shard to healthy.
  Status RebuildShard(size_t shard);

  /// Live swap from disk: loads the snapshot at `path` into a fresh
  /// generation for `shard` (validated against the shard's retained slice)
  /// and publishes it atomically. Also resets the shard to healthy.
  Status RestoreShard(size_t shard, const std::string& path,
                      const SnapshotLoadOptions& load_options = {});

  /// Sets one shard's health (the serving layer and the chaos harness
  /// drive this). Takes effect for queries that start afterwards.
  void SetShardHealth(size_t shard, ShardHealth health);

  /// SearchIndex: pins every shard's generation once, scatters `spec` to
  /// each healthy shard (degraded shards answer with lower bounds only,
  /// unhealthy ones are skipped), then merges deterministically as
  /// documented above. The explain gets one part per shard with its
  /// health, wall time, contributed neighbors and counters, plus
  /// scatter/merge stage timings; the part counters sum exactly to the
  /// merged counters — the merge already computes that sum.
  KnnResult Search(const std::vector<double>& query, const QuerySpec& spec,
                   obs::QueryExplain* explain) const override;

  Method method() const override { return method_; }
  IndexKind kind() const override { return kind_; }
  size_t m() const { return m_; }
  size_t dataset_size() const override { return total_size_; }
  size_t series_length() const override { return series_length_; }
  /// Mix of the live per-shard corpus ids (the single shard's id verbatim
  /// when num_shards == 1). Changes whenever any shard swaps generations.
  uint64_t corpus_id() const override;
  size_t num_shards() const override { return shards_.size(); }
  ShardHealth shard_health(size_t shard) const override;

  /// The live corpus id of one shard (diagnostics and swap tests).
  uint64_t shard_corpus_id(size_t shard) const;

  /// Sum of the live generations' store footprints (resident vs. mapped
  /// bytes, frame-cache traffic).
  StoreFootprint footprint() const override;

 private:
  /// One immutable served generation: the shard's slice of the corpus and
  /// the index built over it. The Dataset lives at a stable address inside
  /// the shared_ptr'd Generation — the index points into it.
  struct Generation {
    Dataset dataset;
    std::unique_ptr<SimilarityIndex> index;
  };

  struct Shard {
    mutable std::mutex mu;  ///< guards `gen` publication (not queries)
    std::shared_ptr<const Generation> gen;
    std::atomic<int> health{static_cast<int>(ShardHealth::kHealthy)};
    size_t lo = 0, hi = 0;  ///< global id range [lo, hi)
  };

  /// A query's pinned view of one shard.
  struct Pinned {
    std::shared_ptr<const Generation> gen;
    ShardHealth health = ShardHealth::kHealthy;
    size_t lo = 0;
  };

  std::vector<Pinned> PinShards() const;
  /// Shared Build/Restore body: partitions, then builds each shard or
  /// loads it from `snapshot_prefix` (empty = build).
  Status InitShards(const Dataset& dataset, const std::string& snapshot_prefix,
                    const SnapshotLoadOptions& load_options);
  /// Atomically swaps in a shard's next generation and resets its health.
  void Publish(size_t shard, std::shared_ptr<const Generation> gen);

  Method method_;
  size_t m_;
  IndexKind kind_;
  Options options_;
  size_t total_size_ = 0;
  size_t series_length_ = 0;
  /// Fixed after Build/Restore; the deque-free stable vector is never
  /// resized while queries run.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sapla

#endif  // SAPLA_SEARCH_SHARDED_INDEX_H_
