#include "search/sharded_index.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/trace.h"
#include "search/snapshot.h"
#include "util/parallel.h"

namespace sapla {
namespace {

// splitmix64 finalizer: folds per-shard corpus ids into one order-sensitive
// fleet id.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

using SteadyClock = std::chrono::steady_clock;

uint64_t ElapsedUs(SteadyClock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - since)
          .count());
}

}  // namespace

ShardedIndex::ShardedIndex(Method method, size_t m, IndexKind kind)
    : ShardedIndex(method, m, kind, Options()) {}

ShardedIndex::ShardedIndex(Method method, size_t m, IndexKind kind,
                           const Options& options)
    : method_(method), m_(m), kind_(kind), options_(options) {
  // The merge contract demands per-shard answers that do not depend on the
  // partition, which DBCH's default §5.3 node distance cannot give (it is
  // knowingly approximate, index/dbch_tree.h). Force the sound regime on
  // every shard regardless of what the caller passed.
  options_.index.dbch_sound_bounds = true;
}

ShardedIndex::~ShardedIndex() = default;

std::string ShardedIndex::ShardSnapshotPath(const std::string& prefix,
                                            size_t shard) {
  return prefix + ".shard" + std::to_string(shard) + ".snp";
}

Status ShardedIndex::InitShards(const Dataset& dataset,
                                const std::string& snapshot_prefix,
                                const SnapshotLoadOptions& load_options) {
  if (dataset.size() == 0) return Status::InvalidArgument("empty dataset");
  const size_t n = dataset.size();
  const size_t count =
      std::min(std::max<size_t>(1, options_.num_shards), n);

  // Build into a side vector so a failed shard leaves the index serving
  // whatever it served before.
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(count);
  for (size_t s = 0; s < count; ++s) {
    const auto [lo, hi] = ParallelChunk(0, n, count, s);
    auto gen = std::make_shared<Generation>();
    gen->dataset.name = dataset.name;
    gen->dataset.series.assign(dataset.series.begin() + lo,
                               dataset.series.begin() + hi);
    gen->index =
        std::make_unique<SimilarityIndex>(method_, m_, kind_, options_.index);
    const Status st =
        snapshot_prefix.empty()
            ? gen->index->Build(gen->dataset)
            : LoadIndexSnapshot(ShardSnapshotPath(snapshot_prefix, s),
                                gen->dataset, gen->index.get(), load_options);
    if (!st.ok()) return st;
    auto shard = std::make_unique<Shard>();
    shard->gen = std::move(gen);
    shard->lo = lo;
    shard->hi = hi;
    shards.push_back(std::move(shard));
  }
  shards_ = std::move(shards);
  total_size_ = n;
  series_length_ = dataset.length();
  return Status::OK();
}

Status ShardedIndex::Build(const Dataset& dataset) {
  SAPLA_TRACE_SPAN("shard/build");
  return InitShards(dataset, "", SnapshotLoadOptions{});
}

Status ShardedIndex::Restore(const Dataset& dataset, const std::string& prefix,
                             const SnapshotLoadOptions& load_options) {
  SAPLA_TRACE_SPAN("shard/restore");
  if (prefix.empty())
    return Status::InvalidArgument("empty snapshot prefix");
  return InitShards(dataset, prefix, load_options);
}

std::pair<size_t, size_t> ShardedIndex::ShardRange(size_t shard) const {
  if (shard >= shards_.size()) return {0, 0};
  return {shards_[shard]->lo, shards_[shard]->hi};
}

Status ShardedIndex::SaveSnapshots(
    const std::string& prefix, const SnapshotWriteOptions& write_options) const {
  SAPLA_TRACE_SPAN("shard/save_snapshots");
  if (shards_.empty())
    return Status::InvalidArgument("sharded index is not built");
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<const Generation> gen;
    {
      std::lock_guard<std::mutex> lock(shards_[s]->mu);
      gen = shards_[s]->gen;
    }
    const Status st = SaveIndexSnapshot(ShardSnapshotPath(prefix, s),
                                        *gen->index, write_options);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void ShardedIndex::Publish(size_t shard,
                           std::shared_ptr<const Generation> gen) {
  Shard& sh = *shards_[shard];
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.gen = std::move(gen);
  }
  sh.health.store(static_cast<int>(ShardHealth::kHealthy));
}

Status ShardedIndex::RebuildShard(size_t shard) {
  SAPLA_TRACE_SPAN("shard/rebuild");
  if (shard >= shards_.size())
    return Status::InvalidArgument("shard out of range");
  std::shared_ptr<const Generation> old;
  {
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    old = shards_[shard]->gen;
  }
  auto gen = std::make_shared<Generation>();
  gen->dataset = old->dataset;
  gen->index =
      std::make_unique<SimilarityIndex>(method_, m_, kind_, options_.index);
  const Status st = gen->index->Build(gen->dataset);
  if (!st.ok()) return st;
  Publish(shard, std::move(gen));
  return Status::OK();
}

Status ShardedIndex::RestoreShard(size_t shard, const std::string& path,
                                  const SnapshotLoadOptions& load_options) {
  SAPLA_TRACE_SPAN("shard/restore_shard");
  if (shard >= shards_.size())
    return Status::InvalidArgument("shard out of range");
  std::shared_ptr<const Generation> old;
  {
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    old = shards_[shard]->gen;
  }
  auto gen = std::make_shared<Generation>();
  gen->dataset = old->dataset;
  gen->index =
      std::make_unique<SimilarityIndex>(method_, m_, kind_, options_.index);
  const Status st =
      LoadIndexSnapshot(path, gen->dataset, gen->index.get(), load_options);
  if (!st.ok()) return st;
  Publish(shard, std::move(gen));
  return Status::OK();
}

void ShardedIndex::SetShardHealth(size_t shard, ShardHealth health) {
  if (shard >= shards_.size()) return;
  shards_[shard]->health.store(static_cast<int>(health));
}

ShardHealth ShardedIndex::shard_health(size_t shard) const {
  if (shard >= shards_.size()) return ShardHealth::kUnhealthy;
  return static_cast<ShardHealth>(shards_[shard]->health.load());
}

uint64_t ShardedIndex::shard_corpus_id(size_t shard) const {
  if (shard >= shards_.size()) return 0;
  std::lock_guard<std::mutex> lock(shards_[shard]->mu);
  return shards_[shard]->gen->index->corpus_id();
}

StoreFootprint ShardedIndex::footprint() const {
  StoreFootprint total;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<const Generation> gen;
    {
      std::lock_guard<std::mutex> lock(shards_[s]->mu);
      gen = shards_[s]->gen;
    }
    if (gen != nullptr && gen->index != nullptr)
      total += gen->index->footprint();
  }
  return total;
}

uint64_t ShardedIndex::corpus_id() const {
  if (shards_.empty()) return 0;
  if (shards_.size() == 1) return shard_corpus_id(0);
  uint64_t h = 0;
  for (size_t s = 0; s < shards_.size(); ++s)
    h = Mix64(h ^ shard_corpus_id(s));
  return h;
}

std::vector<ShardedIndex::Pinned> ShardedIndex::PinShards() const {
  std::vector<Pinned> pins(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      pins[s].gen = sh.gen;
    }
    pins[s].health = static_cast<ShardHealth>(sh.health.load());
    pins[s].lo = sh.lo;
  }
  return pins;
}

// Each query pins every shard's generation once, scatters (inline when
// already inside a batch worker — ParallelFor nests safely), remaps local
// ids to global by the shard's range start, sums the counters and sorts on
// (distance, id). The per-shard answer sets are exact over disjoint
// subsets, so the merge reproduces the single-index answer.
KnnResult ShardedIndex::Search(const std::vector<double>& query,
                               const QuerySpec& spec,
                               obs::QueryExplain* explain) const {
  SAPLA_TRACE_SPAN(spec.knn() ? "shard/knn" : "shard/range");
  const auto t0 = SteadyClock::now();
  const std::vector<Pinned> pins = PinShards();
  std::vector<KnnResult> parts(pins.size());
  std::vector<uint64_t> part_us(explain == nullptr ? 0 : pins.size(), 0);
  // An excluded shard always costs exactness; a degraded one only when the
  // caller asked for more than lower bounds.
  bool approximate = false;
  for (const Pinned& p : pins)
    if (p.health == ShardHealth::kUnhealthy ||
        (p.health == ShardHealth::kDegraded && !spec.lower_bound))
      approximate = true;
  uint64_t scatter_us = 0;
  {
    SAPLA_TRACE_SPAN("shard/scatter");
    const auto s0 = SteadyClock::now();
    ParallelFor(0, pins.size(), [&](size_t s) {
      SAPLA_TRACE_SPAN("shard/search");
      const Pinned& p = pins[s];
      if (p.health == ShardHealth::kUnhealthy) return;
      const auto w0 = SteadyClock::now();
      QuerySpec shard_spec = spec;
      if (p.health == ShardHealth::kDegraded) shard_spec.lower_bound = true;
      parts[s] = p.gen->index->Search(query, shard_spec, nullptr);
      if (explain != nullptr) part_us[s] = ElapsedUs(w0);
    });
    scatter_us = ElapsedUs(s0);
  }
  KnnResult out;
  uint64_t merge_us = 0;
  {
    SAPLA_TRACE_SPAN("shard/merge");
    const auto m0 = SteadyClock::now();
    for (size_t s = 0; s < pins.size(); ++s) {
      for (const auto& [dist, id] : parts[s].neighbors)
        out.neighbors.emplace_back(dist, id + pins[s].lo);
      out.num_measured += parts[s].num_measured;
      out.counters.Add(parts[s].counters);
    }
    std::sort(out.neighbors.begin(), out.neighbors.end());
    if (spec.knn() && out.neighbors.size() > spec.k)
      out.neighbors.resize(spec.k);
    merge_us = ElapsedUs(m0);
  }
  out.approximate = approximate;
  if (explain != nullptr) {
    explain->trace_id = obs::CurrentTraceContext().trace_id;
    explain->total_us = ElapsedUs(t0);
    explain->approximate = out.approximate;
    explain->counters = out.counters;
    explain->stages.push_back({"scatter", scatter_us});
    explain->stages.push_back({"merge", merge_us});
    for (size_t s = 0; s < pins.size(); ++s) {
      obs::ShardExplain part;
      part.part = "shard" + std::to_string(s);
      part.health = static_cast<int>(pins[s].health);
      part.dur_us = part_us[s];
      part.results = parts[s].neighbors.size();
      part.counters = parts[s].counters;
      explain->parts.push_back(std::move(part));
    }
  }
  return out;
}

}  // namespace sapla
