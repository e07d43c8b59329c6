// Storage-tier footprint: bytes/series of the persisted store versus the
// pruning power the quantized corpus retains, across fixed-point step
// sizes, plus a cold (mmap-backed) residency demonstration.
//
// The acceptance claim behind the tiered-store work: at least one
// quantization level must cut bytes/series by >= 3x versus the raw v3
// archive while losing <= 10% relative pruning power — with kNN answers
// id- and distance-identical throughout (asserted per query; compression
// is never allowed to change an answer, only how much the filter prunes).
//
//   --n=256 --series=100 --datasets=4 --queries=3 --budgets=16
//   --json=BENCH_footprint.json   (default; Table::WriteJson format)

#include <stdlib.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "harness_common.h"
#include "reduction/column_codec.h"
#include "reduction/representation_store.h"
#include "search/knn.h"
#include "search/snapshot.h"
#include "ts/io.h"
#include "util/rng.h"
#include "util/table.h"

namespace sapla {
namespace bench {
namespace {

constexpr size_t kK = 8;

// A directory that mkdtemp creates under $TMPDIR (default /tmp), removed
// with everything in it when the object goes out of scope. `path` is empty
// when the directory could not be created.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    const char* base = std::getenv("TMPDIR");
    path = std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
           "/sapla_bench_footprint_XXXXXX";
    if (::mkdtemp(path.data()) == nullptr) path.clear();
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

struct Level {
  const char* label;
  double step;  // 0 = raw full precision (v3 archive)
};

constexpr Level kLevels[] = {
    {"raw", 0.0},        {"q=1e-4", 1e-4}, {"q=1e-3", 1e-3},
    {"q=3e-3", 3e-3},    {"q=1e-2", 1e-2},
};

/// Mean fraction of the corpus the filter pruned away (1 - measured/size).
double PruningPower(const SimilarityIndex& index,
                    const std::vector<std::vector<double>>& queries,
                    size_t corpus_size,
                    const std::vector<KnnResult>* id_baseline,
                    bool* ids_identical) {
  double power = 0.0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const KnnResult r = index.Knn(queries[qi], kK);
    power += 1.0 - static_cast<double>(r.num_measured) /
                       static_cast<double>(corpus_size);
    if (id_baseline != nullptr) {
      const KnnResult& want = (*id_baseline)[qi];
      if (r.neighbors != want.neighbors) *ids_identical = false;
    }
  }
  return power / static_cast<double>(queries.size());
}

int Run(int argc, char** argv) {
  HarnessConfig base;
  base.n = 256;
  base.num_datasets = 4;
  base.budgets = {16};
  base.methods = {Method::kSapla};
  base.json_path = "BENCH_footprint.json";
  const HarnessConfig config = ParseFlags(argc, argv, base);
  const size_t m = config.budgets.front();

  // One corpus: every dataset's series under one roof (the store is the
  // unit being measured, so bigger is more representative).
  Dataset all;
  all.name = "footprint-corpus";
  for (size_t d = 0; d < config.num_datasets; ++d) {
    Dataset ds = MakeDataset(config, d);
    for (TimeSeries& ts : ds.series) all.series.push_back(std::move(ts));
  }
  const size_t corpus = all.size();

  std::vector<std::vector<double>> queries;
  Rng rng(517);
  for (size_t qi = 0; qi < config.num_queries * config.num_datasets; ++qi) {
    std::vector<double> q = all.series[rng.UniformInt(corpus)].values;
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    queries.push_back(std::move(q));
  }

  Table t("Store footprint vs pruning power (" +
          std::string(MethodName(config.methods.front())) + ", M=" +
          std::to_string(m) + ", " + std::to_string(corpus) + " series x n=" +
          std::to_string(config.n) + ", k=" + std::to_string(kK) + ")");
  t.SetHeader({"Level", "Bytes/Series", "Compression", "PruningPower",
               "RelPowerLoss%", "MaxSlack", "IdsIdentical"});

  SimilarityIndex raw(config.methods.front(), m, IndexKind::kRTree);
  if (const Status st = raw.Build(all); !st.ok()) {
    fprintf(stderr, "FATAL: build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<KnnResult> baseline;
  for (const std::vector<double>& q : queries)
    baseline.push_back(raw.Knn(q, kK));

  const size_t raw_bytes = SerializeRepresentationStore(
                               raw.store(), StoreFormat::kV3)
                               .size();
  const double raw_power =
      PruningPower(raw, queries, corpus, nullptr, nullptr);

  bool target_met = false;
  for (const Level& level : kLevels) {
    size_t bytes = raw_bytes;
    double power = raw_power;
    double max_slack = 0.0;
    bool ids_identical = true;
    if (level.step > 0.0) {
      StoreCodecOptions codec;
      codec.ab_step = level.step;
      codec.coeff_step = level.step;
      auto quantized = QuantizeStore(raw.store(), codec);
      if (!quantized.ok()) {
        fprintf(stderr, "FATAL: quantize(%s) failed: %s\n", level.label,
                quantized.status().ToString().c_str());
        return 1;
      }
      bytes = SerializeRepresentationStore(*quantized).size();
      max_slack = quantized->max_lb_slack();
      SimilarityIndex index(config.methods.front(), m, IndexKind::kRTree);
      if (const Status st = index.RestoreFromStore(
              all, std::move(quantized).ValueOrDie());
          !st.ok()) {
        fprintf(stderr, "FATAL: restore(%s) failed: %s\n", level.label,
                st.ToString().c_str());
        return 1;
      }
      power = PruningPower(index, queries, corpus, &baseline,
                           &ids_identical);
    }
    const double bytes_per_series =
        static_cast<double>(bytes) / static_cast<double>(corpus);
    const double compression =
        static_cast<double>(raw_bytes) / static_cast<double>(bytes);
    const double rel_loss =
        raw_power > 0.0 ? 100.0 * (raw_power - power) / raw_power : 0.0;
    if (!ids_identical) {
      fprintf(stderr, "FATAL: %s changed a kNN answer\n", level.label);
      return 1;
    }
    if (compression >= 3.0 && rel_loss <= 10.0) target_met = true;
    t.AddRow({level.label, Table::Num(bytes_per_series, 6),
              Table::Num(compression, 2) + "x", Table::Num(power, 4),
              Table::Num(rel_loss, 2), Table::Num(max_slack, 4),
              ids_identical ? "yes" : "NO"});
  }

  if (!t.Print(config.CsvPath("store_footprint"))) return 1;
  if (!config.json_path.empty() && !t.WriteJson(config.json_path)) return 1;

  // Cold-residency demonstration: the same corpus served from an mmap'd
  // v4 snapshot with a decode cache a quarter of the archive — the shard
  // answers bit-identically while most of the store stays on disk.
  {
    const ScratchDir dir;
    if (dir.path.empty()) {
      perror("FATAL: mkdtemp");
      return 1;
    }
    const std::string path = dir.path + "/footprint.snp";
    SnapshotWriteOptions write;
    write.codec.ab_step = 1e-3;
    write.codec.coeff_step = 1e-3;
    write.store_format = StoreFormat::kV4;
    if (const Status st = SaveIndexSnapshot(path, raw, write); !st.ok()) {
      fprintf(stderr, "FATAL: snapshot save failed: %s\n",
              st.ToString().c_str());
      return 1;
    }
    SimilarityIndex cold(config.methods.front(), m, IndexKind::kRTree);
    SnapshotLoadOptions load;
    load.cold_store = true;
    load.cold_cache_bytes = 1;  // floor: one decoded frame resident
    if (const Status st = LoadIndexSnapshot(path, all, &cold, load);
        !st.ok()) {
      fprintf(stderr, "FATAL: cold load failed: %s\n",
              st.ToString().c_str());
      return 1;
    }
    bool cold_ids_identical = true;
    PruningPower(cold, queries, corpus, &baseline, &cold_ids_identical);
    const StoreFootprint fp = cold.footprint();
    printf("\ncold tier: %zu resident / %zu mapped store bytes (%.1fx "
           "larger than resident), %llu frame hits / %llu misses, "
           "ids identical: %s\n",
           fp.resident_bytes, fp.mapped_bytes,
           fp.resident_bytes > 0
               ? static_cast<double>(fp.mapped_bytes) /
                     static_cast<double>(fp.resident_bytes)
               : 0.0,
           static_cast<unsigned long long>(fp.frame_hits),
           static_cast<unsigned long long>(fp.frame_misses),
           cold_ids_identical ? "yes" : "NO");
    if (!cold_ids_identical) {
      fprintf(stderr, "FATAL: cold store changed a kNN answer\n");
      return 1;
    }
  }

  if (!target_met) {
    fprintf(stderr,
            "FATAL: no quantization level reached >= 3x bytes/series "
            "reduction at <= 10%% relative pruning-power loss\n");
    return 1;
  }
  printf("target met: >= 3x compression at <= 10%% pruning-power loss\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace sapla

int main(int argc, char** argv) { return sapla::bench::Run(argc, argv); }
