#include "ingest/ingest_controller.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "obs/trace.h"
#include "search/filter_refine.h"
#include "ts/io.h"
#include "util/binio.h"
#include "util/crc32c.h"
#include "util/fault.h"
#include "util/parallel.h"

namespace sapla {
namespace {

// splitmix64 finalizer (same as sharded_index.cc): folds generation store
// ids and the publication counter into one epoch identity.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::atomic<uint64_t> g_instance_counter{0x1A6E57u};

uint64_t NextInstanceId() { return Mix64(g_instance_counter.fetch_add(1)); }

bool Tombstoned(const std::vector<uint64_t>& tombstones, uint64_t id) {
  return std::binary_search(tombstones.begin(), tombstones.end(), id);
}

// Manifest framing: magic + version + u32 crc32c(body) + body.
constexpr char kManifestMagic[] = "SAPLAMAN";
constexpr size_t kManifestMagicLen = 8;
constexpr uint32_t kManifestVersion = 1;

}  // namespace

IngestController::IngestController(Method method, size_t m, IndexKind kind,
                                   size_t series_length,
                                   const IngestOptions& options)
    : method_(method),
      m_(m),
      kind_(kind),
      series_length_(series_length),
      options_(options),
      instance_id_(NextInstanceId()) {
  // The multi-generation merge is a partition of the visible set, so every
  // generation must answer exactly — force the sound DBCH regime just like
  // ShardedIndex.
  options_.index.dbch_sound_bounds = true;
  reducer_ = MakeReducer(method_);
  if (options_.streaming_reduction && method_ == Method::kSapla) {
    streamer_ =
        std::make_unique<StreamingSapla>(SegmentsForBudget(method_, m_));
  } else {
    options_.streaming_reduction = false;
  }
  memtable_ = std::make_shared<Memtable>();
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();
}

IngestController::~IngestController() {
  // Everything metered here dies with the controller; hand the bytes back
  // so the shared budget's other consumers see the room.
  if (options_.memory_budget && budget_accounted_ > 0)
    options_.memory_budget->Release(budget_accounted_);
}

std::string IngestController::WalPath() const {
  return options_.durable_dir + "/wal.log";
}

std::string IngestController::ManifestPath() const {
  return options_.durable_dir + "/manifest.bin";
}

std::string IngestController::SnapshotPrefix() const {
  return options_.durable_dir + "/main";
}

std::shared_ptr<const IngestController::Epoch> IngestController::PinEpoch()
    const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

void IngestController::PublishLocked() {
  auto e = std::make_shared<Epoch>();
  e->main = main_;
  e->minors = minors_;
  e->memtable = memtable_;

  // Tombstones = explicit deletes of sealed entries + everything whose TTL
  // has passed. Expiry is fixed per epoch (the sequence only advances on
  // mutations), so the set is computed once at publication, not per query.
  std::vector<uint64_t> tomb(deletes_.begin(), deletes_.end());
  for (const auto& [id, expiry] : ttl_)
    if (seq_ > expiry) tomb.push_back(id);
  std::sort(tomb.begin(), tomb.end());
  tomb.erase(std::unique(tomb.begin(), tomb.end()), tomb.end());
  e->tombstones = std::move(tomb);

  size_t stored = memtable_->entries.size() + (main_ ? main_->ids.size() : 0);
  for (const auto& minor : minors_) stored += minor->ids.size();
  e->visible = stored - e->tombstones.size();
  e->seq = seq_;

  ++publishes_;
  uint64_t h = Mix64(instance_id_ ^ publishes_);
  h = Mix64(h ^ seq_);
  if (main_) h = Mix64(h ^ main_->index->corpus_id());
  for (const auto& minor : minors_) h = Mix64(h ^ minor->index->corpus_id());
  e->corpus_id = h;

  metrics_.memtable_size.store(memtable_->entries.size(),
                               std::memory_order_relaxed);
  metrics_.sealed_minors.store(minors_.size(), std::memory_order_relaxed);
  metrics_.tombstones.store(e->tombstones.size(), std::memory_order_relaxed);
  metrics_.visible_series.store(e->visible, std::memory_order_relaxed);
  UpdateBudgetLocked();

  std::lock_guard<std::mutex> lock(epoch_mu_);
  epoch_ = std::move(e);
}

void IngestController::UpdateBudgetLocked() {
  if (!options_.memory_budget) return;
  // Memtable: raw values + entry bookkeeping + the reduced store; minors
  // carry their seal-time figure. The main generation is deliberately
  // unmetered — compaction moving bytes into it is what FREES budget,
  // which is exactly the graded response AdmitInsertLocked forces.
  size_t bytes = memtable_->entries.size() *
                     (series_length_ * sizeof(double) + sizeof(MemEntry)) +
                 memtable_->store.footprint().resident_bytes;
  for (const auto& minor : minors_) bytes += minor->budget_bytes;
  if (bytes > budget_accounted_)
    options_.memory_budget->ForceReserve(bytes - budget_accounted_);
  else if (bytes < budget_accounted_)
    options_.memory_budget->Release(budget_accounted_ - bytes);
  budget_accounted_ = bytes;
  metrics_.budget_bytes.store(bytes, std::memory_order_relaxed);
}

Status IngestController::AdmitInsertLocked() {
  if (!options_.memory_budget) return Status::OK();
  BudgetPressure pressure = options_.memory_budget->pressure_up();
  if (pressure != BudgetPressure::kNone && seq_ != last_relief_seq_) {
    // Graded response, step one: move what ingest owns out of the metered
    // tiers — seal the memtable, compact the minors into the main. Soft
    // pressure only bothers when there is real freeable mass (a half-full
    // memtable or any sealed minor); hard pressure frees whatever exists.
    // At most one attempt per mutation sequence, so a burst of rejected
    // inserts cannot pay a compaction each.
    const bool hard = pressure == BudgetPressure::kHard;
    const bool freeable =
        !minors_.empty() ||
        (hard ? !memtable_->entries.empty()
              : memtable_->entries.size() >=
                    std::max<size_t>(1, options_.memtable_max / 2));
    if (freeable) {
      last_relief_seq_ = seq_;
      const Status seal_st = SealLocked();
      (void)seal_st;
      const Status compact_st = CompactLocked();
      (void)compact_st;
      metrics_.budget_forced_compactions.fetch_add(1,
                                                   std::memory_order_relaxed);
      pressure = options_.memory_budget->pressure_up();
    }
  }
  if (pressure == BudgetPressure::kHard) {
    // Step two: shed the write. The caller retries after pressure lifts.
    metrics_.rejected_budget.fetch_add(1, std::memory_order_relaxed);
    return Status::Overloaded(
        "ingest: memory budget exhausted; shedding writes");
  }
  return Status::OK();
}

void IngestController::ReduceIntoLocked(const std::vector<double>& values,
                                        RepresentationStore* store) {
  if (streamer_) {
    streamer_->Reset();
    for (double v : values) streamer_->Append(v);
    store->Append(streamer_->Snapshot());
  } else {
    reducer_->ReduceInto(values, m_, store);
  }
}

bool IngestController::VisibleLocked(uint64_t id) const {
  if (live_.find(id) == live_.end()) return false;
  const auto it = ttl_.find(id);
  return it == ttl_.end() || seq_ <= it->second;
}

void IngestController::ApplyInsertLocked(MemEntry entry) {
  auto next = std::make_shared<Memtable>(*memtable_);
  ReduceIntoLocked(entry.values, &next->store);
  if (entry.expiry_seq != 0) ttl_[entry.id] = entry.expiry_seq;
  live_[entry.id] = Loc::kMemtable;
  next->entries.push_back(std::move(entry));
  memtable_ = std::move(next);
  PublishLocked();
  if (options_.memtable_max != 0 &&
      memtable_->entries.size() >= options_.memtable_max) {
    // Auto-seal/compact are best-effort: the insert is already acknowledged
    // and consistent; a failed (fault-injected) background step just leaves
    // the memtable/minors to be retried at the next trigger.
    const Status seal_st = SealLocked();
    (void)seal_st;
  }
  if (options_.compact_min_minors != 0 &&
      minors_.size() >= options_.compact_min_minors) {
    const Status compact_st = CompactLocked();
    (void)compact_st;
  }
}

Result<uint64_t> IngestController::Insert(const std::vector<double>& values,
                                          int label,
                                          uint64_t ttl_mutations) {
  SAPLA_TRACE_SPAN("ingest/insert");
  if (series_length_ < 2)
    return Status::InvalidArgument("ingest: series length must be >= 2");
  if (values.size() != series_length_)
    return Status::InvalidArgument(
        "ingest: series length " + std::to_string(values.size()) +
        " does not match the controller's " + std::to_string(series_length_));
  for (double v : values) {
    if (!std::isfinite(v))
      return Status::InvalidArgument(
          "ingest: series contains non-finite values");
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_minors != 0 && minors_.size() >= options_.max_minors) {
    metrics_.rejected_overloaded.fetch_add(1, std::memory_order_relaxed);
    return Status::Overloaded(
        "ingest: too many sealed minors awaiting compaction");
  }
  SAPLA_RETURN_NOT_OK(AdmitInsertLocked());

  MemEntry entry;
  entry.id = next_id_;
  entry.seq = seq_;
  entry.expiry_seq = ttl_mutations == 0 ? 0 : seq_ + ttl_mutations;
  entry.label = label;
  entry.values = values;

  if (!options_.durable_dir.empty()) {
    // A durable controller never acknowledges what it cannot log: if the
    // log is closed (Recover() not called, or a faulted checkpoint could
    // not reopen it) the mutation is refused rather than silently lost.
    if (!wal_.is_open())
      return Status::Unavailable("ingest: write-ahead log is not open");
    WalRecord rec;
    rec.kind = WalRecord::Kind::kInsert;
    rec.seq = entry.seq;
    rec.id = entry.id;
    rec.label = entry.label;
    rec.expiry_seq = entry.expiry_seq;
    rec.values = entry.values;
    const uint64_t before = wal_.bytes_appended();
    const Status st = wal_.Append(rec);
    // Fail closed: an unlogged mutation is never applied, so the acked
    // history and the log stay exactly in sync.
    if (!st.ok()) return st;
    metrics_.wal_records.fetch_add(1, std::memory_order_relaxed);
    metrics_.wal_bytes.fetch_add(wal_.bytes_appended() - before,
                                 std::memory_order_relaxed);
  }

  const uint64_t id = entry.id;
  ++next_id_;
  ++seq_;
  ApplyInsertLocked(std::move(entry));
  metrics_.inserts.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void IngestController::ApplyDeleteLocked(uint64_t id, bool in_memtable) {
  if (in_memtable) {
    // Rewrite the memtable without the entry. The store round-trips each
    // surviving reduction losslessly (ToRepresentation -> Append), so no
    // series is re-reduced and streaming-produced segments are preserved.
    auto next = std::make_shared<Memtable>();
    next->entries.reserve(memtable_->entries.size() - 1);
    for (size_t i = 0; i < memtable_->entries.size(); ++i) {
      if (memtable_->entries[i].id == id) continue;
      next->entries.push_back(memtable_->entries[i]);
      next->store.Append(memtable_->store.ToRepresentation(i));
    }
    memtable_ = std::move(next);
  } else {
    deletes_.insert(id);
  }
  live_.erase(id);
  ttl_.erase(id);
  PublishLocked();
}

Status IngestController::Delete(uint64_t id) {
  SAPLA_TRACE_SPAN("ingest/delete");
  std::lock_guard<std::mutex> lock(mu_);
  if (!VisibleLocked(id))
    return Status::NotFound("ingest: id " + std::to_string(id) +
                            " is not visible");
  const bool in_memtable = live_.at(id) == Loc::kMemtable;

  if (!options_.durable_dir.empty()) {
    if (!wal_.is_open())
      return Status::Unavailable("ingest: write-ahead log is not open");
    WalRecord rec;
    rec.kind = WalRecord::Kind::kDelete;
    rec.seq = seq_;
    rec.id = id;
    const uint64_t before = wal_.bytes_appended();
    const Status st = wal_.Append(rec);
    if (!st.ok()) return st;
    metrics_.wal_records.fetch_add(1, std::memory_order_relaxed);
    metrics_.wal_bytes.fetch_add(wal_.bytes_appended() - before,
                                 std::memory_order_relaxed);
  }

  ++seq_;
  ApplyDeleteLocked(id, in_memtable);
  metrics_.deletes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status IngestController::SealLocked() {
  if (memtable_->entries.empty()) return Status::OK();
  SAPLA_FAULT_POINT("ingest/seal");

  auto minor = std::make_shared<Minor>();
  minor->dataset.name = "ingest-minor";
  minor->dataset.series.reserve(memtable_->entries.size());
  minor->ids.reserve(memtable_->entries.size());
  for (const MemEntry& e : memtable_->entries) {
    minor->dataset.series.emplace_back(e.values, e.label);
    minor->ids.push_back(e.id);
  }
  minor->index =
      std::make_unique<SimilarityIndex>(method_, m_, kind_, options_.index);
  // Adopt the memtable's already-reduced store: no re-reduction, and the
  // tree is built by the same serial id-order insertion a fresh Build uses.
  const Status st = minor->index->RestoreFromStore(
      minor->dataset, RepresentationStore(memtable_->store));
  if (!st.ok()) return st;

  minor->budget_bytes =
      minor->ids.size() * (series_length_ * sizeof(double) +
                           sizeof(TimeSeries) + sizeof(uint64_t)) +
      minor->index->footprint().resident_bytes;

  for (const MemEntry& e : memtable_->entries) live_[e.id] = Loc::kSealed;
  minors_.push_back(std::move(minor));
  memtable_ = std::make_shared<Memtable>();
  metrics_.seals.fetch_add(1, std::memory_order_relaxed);
  PublishLocked();
  return Status::OK();
}

Status IngestController::Seal() {
  SAPLA_TRACE_SPAN("ingest/seal");
  std::lock_guard<std::mutex> lock(mu_);
  return SealLocked();
}

Status IngestController::CompactLocked() {
  // No-op when nothing sealed needs merging or dropping (memtable-only
  // expiries stay tombstoned until their entries are sealed + compacted).
  bool sealed_expired = false;
  for (const auto& [id, expiry] : ttl_) {
    const auto it = live_.find(id);
    if (it != live_.end() && it->second == Loc::kSealed && seq_ > expiry) {
      sealed_expired = true;
      break;
    }
  }
  if (minors_.empty() && deletes_.empty() && !sealed_expired)
    return Status::OK();
  SAPLA_FAULT_POINT("ingest/compact");

  const auto expiry_of = [&](uint64_t id) -> uint64_t {
    const auto it = ttl_.find(id);
    return it == ttl_.end() ? 0 : it->second;
  };
  const auto keep = [&](uint64_t id, uint64_t expiry) {
    return deletes_.find(id) == deletes_.end() &&
           (expiry == 0 || seq_ <= expiry);
  };

  // Survivors, ascending by global id: ids are assigned monotonically and
  // compaction absorbs every sealed generation, so main's ids all precede
  // the minors', and the minors' precede each other in creation order.
  struct Row {
    uint64_t id;
    uint64_t expiry;
    const TimeSeries* ts;
  };
  std::vector<Row> rows;
  std::vector<uint64_t> dropped;
  if (main_) {
    for (size_t i = 0; i < main_->ids.size(); ++i) {
      if (keep(main_->ids[i], main_->expiry[i]))
        rows.push_back({main_->ids[i], main_->expiry[i],
                        &main_->dataset.series[i]});
      else
        dropped.push_back(main_->ids[i]);
    }
  }
  for (const auto& minor : minors_) {
    for (size_t i = 0; i < minor->ids.size(); ++i) {
      const uint64_t id = minor->ids[i];
      const uint64_t expiry = expiry_of(id);
      if (keep(id, expiry))
        rows.push_back({id, expiry, &minor->dataset.series[i]});
      else
        dropped.push_back(id);
    }
  }
  SAPLA_DCHECK(std::is_sorted(
      rows.begin(), rows.end(),
      [](const Row& a, const Row& b) { return a.id < b.id; }));

  std::shared_ptr<const MainGen> next_main;
  if (!rows.empty()) {
    auto gen = std::make_shared<MainGen>();
    gen->dataset.name = "ingest-main";
    gen->dataset.series.reserve(rows.size());
    gen->ids.reserve(rows.size());
    gen->expiry.reserve(rows.size());
    for (const Row& r : rows) {
      gen->dataset.series.push_back(*r.ts);
      gen->ids.push_back(r.id);
      gen->expiry.push_back(r.expiry);
    }
    ShardedIndex::Options so;
    so.num_shards = options_.num_shards;
    so.index = options_.index;
    gen->index = std::make_unique<ShardedIndex>(method_, m_, kind_, so);
    const Status st = gen->index->Build(gen->dataset);
    if (!st.ok()) return st;
    next_main = std::move(gen);
  }

  // Only publish-side state changes after the fallible build succeeded.
  main_ = std::move(next_main);
  for (uint64_t id : dropped) {
    live_.erase(id);
    ttl_.erase(id);
  }
  deletes_.clear();
  minors_.clear();
  metrics_.compactions.fetch_add(1, std::memory_order_relaxed);
  PublishLocked();
  return Status::OK();
}

Status IngestController::Compact() {
  SAPLA_TRACE_SPAN("ingest/compact");
  std::lock_guard<std::mutex> lock(mu_);
  return CompactLocked();
}

Status IngestController::WriteManifestLocked() const {
  std::string body;
  binio::PutU64(&body, seq_);
  binio::PutU64(&body, next_id_);
  binio::PutU64(&body, series_length_);
  binio::PutU64(&body, main_ ? main_->ids.size() : 0);
  if (main_) {
    for (size_t i = 0; i < main_->ids.size(); ++i) {
      binio::PutU64(&body, main_->ids[i]);
      binio::PutI64(&body, main_->dataset.series[i].label);
      binio::PutU64(&body, main_->expiry[i]);
      for (double v : main_->dataset.series[i].values)
        binio::PutF64(&body, v);
    }
  }
  std::string out(kManifestMagic, kManifestMagicLen);
  binio::PutU32(&out, kManifestVersion);
  binio::PutU32(&out, Crc32c(body));
  out.append(body);
  return AtomicWriteFile(ManifestPath(), out);
}

Status IngestController::LoadManifest(const std::string& path,
                                      std::vector<MemEntry>* out,
                                      uint64_t* seq,
                                      uint64_t* next_id) const {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::OK();  // no checkpoint yet
    return Status::IOError("ingest: cannot open manifest '" + path +
                           "': " + std::strerror(errno));
  }
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, got);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err)
    return Status::IOError("ingest: cannot read manifest '" + path + "'");

  if (data.size() < kManifestMagicLen + 8 ||
      data.compare(0, kManifestMagicLen, kManifestMagic, kManifestMagicLen) !=
          0)
    return Status::InvalidArgument("ingest: bad manifest magic in '" + path +
                                   "'");
  binio::Reader hdr(data);
  hdr.ReadBytes(kManifestMagicLen);
  const uint32_t version = hdr.ReadU32();
  const uint32_t crc = hdr.ReadU32();
  if (version != kManifestVersion)
    return Status::InvalidArgument("ingest: unsupported manifest version " +
                                   std::to_string(version));
  const std::string body = data.substr(kManifestMagicLen + 8);
  if (Crc32c(body) != crc)
    return Status::InvalidArgument("ingest: manifest checksum mismatch in '" +
                                   path + "'");

  binio::Reader r(body);
  *seq = r.ReadU64();
  *next_id = r.ReadU64();
  const uint64_t length = r.ReadU64();
  const uint64_t count = r.ReadU64();
  if (!r.ok() || length != series_length_)
    return Status::InvalidArgument(
        "ingest: manifest series length does not match the controller");
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MemEntry e;
    e.id = r.ReadU64();
    e.label = static_cast<int>(r.ReadI64());
    e.expiry_seq = r.ReadU64();
    e.values.resize(length);
    for (uint64_t j = 0; j < length; ++j) e.values[j] = r.ReadF64();
    if (!r.ok())
      return Status::InvalidArgument("ingest: truncated manifest body in '" +
                                     path + "'");
    out->push_back(std::move(e));
  }
  if (r.remaining() != 0)
    return Status::InvalidArgument("ingest: trailing manifest bytes in '" +
                                   path + "'");
  return Status::OK();
}

Status IngestController::Recover() {
  SAPLA_TRACE_SPAN("ingest/recover");
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.durable_dir.empty()) return Status::OK();
  SAPLA_FAULT_POINT("ingest/recover");

  // 1. Manifest -> main generation (warm from snapshots when they match,
  // cold rebuild otherwise).
  std::vector<MemEntry> rows;
  uint64_t manifest_seq = 0, manifest_next = 0;
  const Status mst =
      LoadManifest(ManifestPath(), &rows, &manifest_seq, &manifest_next);
  if (!mst.ok()) return mst;
  seq_ = manifest_seq;
  next_id_ = manifest_next;
  if (!rows.empty()) {
    auto gen = std::make_shared<MainGen>();
    gen->dataset.name = "ingest-main";
    gen->dataset.series.reserve(rows.size());
    for (const MemEntry& e : rows) {
      gen->dataset.series.emplace_back(e.values, e.label);
      gen->ids.push_back(e.id);
      gen->expiry.push_back(e.expiry_seq);
    }
    ShardedIndex::Options so;
    so.num_shards = options_.num_shards;
    so.index = options_.index;
    gen->index = std::make_unique<ShardedIndex>(method_, m_, kind_, so);
    Status st = gen->index->Restore(gen->dataset, SnapshotPrefix());
    if (!st.ok()) {
      // Stale or missing snapshots (e.g. a kill between snapshot save and
      // manifest write, or a changed shard count): rebuild cold.
      gen->index = std::make_unique<ShardedIndex>(method_, m_, kind_, so);
      st = gen->index->Build(gen->dataset);
      if (!st.ok()) return st;
    }
    main_ = std::move(gen);
    for (const MemEntry& e : rows) {
      live_[e.id] = Loc::kSealed;
      if (e.expiry_seq != 0) ttl_[e.id] = e.expiry_seq;
    }
  }

  // 2. WAL replay. Records already covered by the manifest are skipped by
  // id; deletes of ids that never made it (or were compacted away) are
  // ignored — replay is idempotent.
  auto replayed = WriteAheadLog::Replay(WalPath());
  if (!replayed.ok()) return replayed.status();
  recovering_ = true;
  uint64_t applied = 0;
  for (const WalRecord& rec : replayed.ValueOrDie().records) {
    if (rec.kind == WalRecord::Kind::kInsert) {
      if (rec.values.size() != series_length_) {
        recovering_ = false;
        return Status::InvalidArgument(
            "ingest: WAL insert series length does not match the controller");
      }
      next_id_ = std::max(next_id_, rec.id + 1);
      if (live_.find(rec.id) != live_.end()) {
        seq_ = std::max(seq_, rec.seq + 1);
        continue;  // pre-checkpoint record, already in the manifest
      }
      seq_ = std::max(seq_, rec.seq);
      MemEntry entry;
      entry.id = rec.id;
      entry.seq = rec.seq;
      entry.expiry_seq = rec.expiry_seq;
      entry.label = static_cast<int>(rec.label);
      entry.values = rec.values;
      seq_ = std::max(seq_, rec.seq + 1);
      ApplyInsertLocked(std::move(entry));
      ++applied;
    } else {
      if (live_.find(rec.id) == live_.end()) {
        seq_ = std::max(seq_, rec.seq + 1);
        continue;  // deleted target never applied or already compacted
      }
      const bool in_memtable = live_.at(rec.id) == Loc::kMemtable;
      seq_ = std::max(seq_, rec.seq + 1);
      ApplyDeleteLocked(rec.id, in_memtable);
      ++applied;
    }
  }
  recovering_ = false;
  metrics_.wal_replayed.fetch_add(applied, std::memory_order_relaxed);

  // 3. A torn tail must not precede future appends — truncate to the good
  // frames before reopening for append.
  if (replayed.ValueOrDie().dropped_bytes > 0) {
    const Status st =
        WriteAheadLog::Rewrite(WalPath(), replayed.ValueOrDie().records);
    if (!st.ok()) return st;
  }
  const Status wst = wal_.Open(WalPath());
  if (!wst.ok()) return wst;
  PublishLocked();
  return Status::OK();
}

Status IngestController::Checkpoint() {
  SAPLA_TRACE_SPAN("ingest/checkpoint");
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.durable_dir.empty())
    return Status::InvalidArgument("ingest: checkpoint requires durable_dir");
  // Compaction first: afterwards the manifest's main generation is exactly
  // the visible set minus the memtable (no minors, no tombstones).
  Status st = CompactLocked();
  if (!st.ok()) return st;
  SAPLA_FAULT_POINT("ingest/checkpoint");
  if (main_) {
    st = main_->index->SaveSnapshots(SnapshotPrefix(),
                                     options_.snapshot_codec);
    if (!st.ok()) return st;
  }
  st = WriteManifestLocked();
  if (!st.ok()) return st;

  // Truncate the WAL to the memtable's records, original sequence numbers
  // preserved. Crash-safe at every point: until the atomic rewrite lands,
  // recovery sees the new manifest + the full old log, whose replay is
  // idempotent by id and order-preserving.
  std::vector<WalRecord> tail;
  tail.reserve(memtable_->entries.size());
  for (const MemEntry& e : memtable_->entries) {
    WalRecord rec;
    rec.kind = WalRecord::Kind::kInsert;
    rec.seq = e.seq;
    rec.id = e.id;
    rec.label = e.label;
    rec.expiry_seq = e.expiry_seq;
    rec.values = e.values;
    tail.push_back(std::move(rec));
  }
  wal_.Close();
  const Status rewrite = WriteAheadLog::Rewrite(WalPath(), tail);
  const Status reopen = wal_.Open(WalPath());
  if (!rewrite.ok()) return rewrite;
  if (!reopen.ok()) return reopen;
  metrics_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query path: pin the epoch once, scatter over main + minors + memtable,
// filter tombstones, merge under the (distance, global id) order.

KnnResult IngestController::MemtableSearch(
    const Memtable& mem, const std::vector<uint64_t>& tombstones,
    const std::vector<double>& query, const QuerySpec& spec) const {
  const size_t n = mem.entries.size();
  if (n == 0 || (spec.knn() && spec.k == 0)) return KnnResult{};
  FilterRefine step(*reducer_, m_, query, spec);
  for (size_t i = 0; i < n; ++i) {
    const MemEntry& entry = mem.entries[i];
    // Invisible entries are skipped before any evaluation.
    if (!Tombstoned(tombstones, entry.id))
      step.Visit(mem.store, i, nullptr, entry.values,
                 static_cast<size_t>(entry.id));
  }
  return step.Finish(n);
}

KnnResult IngestController::Search(const std::vector<double>& query,
                                   const QuerySpec& spec,
                                   obs::QueryExplain* explain) const {
  SAPLA_TRACE_SPAN(spec.knn() ? "ingest/knn" : "ingest/range");
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_us = [](std::chrono::steady_clock::time_point since) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
  };
  KnnResult out;
  if (spec.knn() && spec.k == 0) return out;
  const auto e = PinEpoch();
  // Over-fetch: a generation's top (k + |tombstones|) minus the tombstoned
  // entries still contains its top-k visible answers, so the filtered
  // union provably contains the global visible top-k. The memtable filters
  // its tombstones before ranking and needs no over-fetch.
  QuerySpec sealed_spec = spec;
  if (spec.knn()) sealed_spec.k += e->tombstones.size();
  // Folds one generation's answer into `out`, remapping local ids through
  // `ids` (null: already global and filtered) and dropping tombstoned
  // entries. One explain part per generation; the part counters come from
  // the raw per-generation results — tombstone filtering drops neighbors,
  // never counters — so their sum equals the merged counters.
  const auto fold = [&](const std::string& name, const KnnResult& part,
                        const std::vector<uint64_t>* ids,
                        std::chrono::steady_clock::time_point g0) {
    if (explain != nullptr) {
      obs::ShardExplain p;
      p.part = name;
      p.dur_us = elapsed_us(g0);
      p.results = part.neighbors.size();
      p.counters = part.counters;
      explain->parts.push_back(std::move(p));
    }
    for (const auto& [dist, local] : part.neighbors) {
      const uint64_t gid = ids == nullptr ? local : (*ids)[local];
      if (ids == nullptr || !Tombstoned(e->tombstones, gid))
        out.neighbors.emplace_back(dist, static_cast<size_t>(gid));
    }
    out.num_measured += part.num_measured;
    out.counters.Add(part.counters);
    out.approximate = out.approximate || part.approximate;
  };
  if (e->main) {
    const auto g0 = std::chrono::steady_clock::now();
    fold("main", e->main->index->Search(query, sealed_spec, nullptr),
         &e->main->ids, g0);
  }
  for (size_t g = 0; g < e->minors.size(); ++g) {
    const auto g0 = std::chrono::steady_clock::now();
    fold("minor" + std::to_string(g),
         e->minors[g]->index->Search(query, sealed_spec, nullptr),
         &e->minors[g]->ids, g0);
  }
  {
    const auto g0 = std::chrono::steady_clock::now();
    fold("memtable", MemtableSearch(*e->memtable, e->tombstones, query, spec),
         nullptr, g0);
  }
  std::sort(out.neighbors.begin(), out.neighbors.end());
  if (spec.knn() && out.neighbors.size() > spec.k)
    out.neighbors.resize(spec.k);
  if (explain != nullptr) {
    explain->trace_id = obs::CurrentTraceContext().trace_id;
    explain->total_us = elapsed_us(t0);
    explain->epoch_seq = e->seq;
    explain->approximate = out.approximate;
    explain->counters = out.counters;
    explain->stages.push_back({"generations", explain->total_us});
  }
  return out;
}

size_t IngestController::dataset_size() const { return PinEpoch()->visible; }

uint64_t IngestController::corpus_id() const { return PinEpoch()->corpus_id; }

size_t IngestController::num_shards() const {
  const auto e = PinEpoch();
  return e->main ? e->main->index->num_shards() : 1;
}

ShardHealth IngestController::shard_health(size_t shard) const {
  const auto e = PinEpoch();
  return e->main ? e->main->index->shard_health(shard)
                 : ShardHealth::kHealthy;
}

StoreFootprint IngestController::footprint() const {
  const auto e = PinEpoch();
  StoreFootprint total;
  if (e->main) total += e->main->index->footprint();
  for (const auto& minor : e->minors) total += minor->index->footprint();
  total += e->memtable->store.footprint();
  return total;
}

IngestController::EpochStats IngestController::GetEpochStats() const {
  const auto e = PinEpoch();
  EpochStats s;
  s.seq = e->seq;
  s.memtable_entries = e->memtable->entries.size();
  s.minor_generations = e->minors.size();
  s.main_entries = e->main ? e->main->ids.size() : 0;
  s.tombstones = e->tombstones.size();
  s.visible = e->visible;
  return s;
}

std::vector<uint64_t> IngestController::VisibleIds() const {
  const auto e = PinEpoch();
  std::vector<uint64_t> ids;
  ids.reserve(e->visible);
  const auto add = [&](uint64_t id) {
    if (!Tombstoned(e->tombstones, id)) ids.push_back(id);
  };
  if (e->main)
    for (uint64_t id : e->main->ids) add(id);
  for (const auto& minor : e->minors)
    for (uint64_t id : minor->ids) add(id);
  for (const MemEntry& entry : e->memtable->entries) add(entry.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Dataset IngestController::VisibleDataset() const {
  const auto e = PinEpoch();
  std::vector<std::pair<uint64_t, const TimeSeries*>> rows;
  rows.reserve(e->visible);
  const auto add = [&](uint64_t id, const TimeSeries* ts) {
    if (!Tombstoned(e->tombstones, id)) rows.emplace_back(id, ts);
  };
  if (e->main)
    for (size_t i = 0; i < e->main->ids.size(); ++i)
      add(e->main->ids[i], &e->main->dataset.series[i]);
  for (const auto& minor : e->minors)
    for (size_t i = 0; i < minor->ids.size(); ++i)
      add(minor->ids[i], &minor->dataset.series[i]);
  std::vector<TimeSeries> mem_series;
  mem_series.reserve(e->memtable->entries.size());
  for (const MemEntry& entry : e->memtable->entries)
    mem_series.emplace_back(entry.values, entry.label);
  for (size_t i = 0; i < e->memtable->entries.size(); ++i)
    add(e->memtable->entries[i].id, &mem_series[i]);
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Dataset out;
  out.name = "ingest-visible";
  out.series.reserve(rows.size());
  for (const auto& [id, ts] : rows) out.series.push_back(*ts);
  return out;
}

}  // namespace sapla
