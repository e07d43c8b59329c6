// Distance-kernel throughput: per-pair legacy kernels (Representation
// arguments, allocating UnionEndpoints + PartitionAt vectors per call)
// against the columnar view/batched kernels (distance/kernels.h: a single
// allocation-free merge pass for Dist_PAR, contiguous column walks in the
// batch) for Dist_PAR and the Dist_LB filter, across representation
// budgets M in {12, 24, 48}.
//
// This is the benchmark behind the columnar refactor's performance claim:
// the batched kernel must clear >= 1.5x the per-pair baseline at M = 24.
// Values are bit-identical between all variants (the bench asserts it), so
// the speedup is pure allocation/locality, not a different computation.
//
//   --n=256 --series=100 --datasets=4 --budgets=12,24,48
//   --json=BENCH_distance.json   (default; Table::WriteJson format)

#include <cstdio>
#include <vector>

#include "distance/distance.h"
#include "distance/kernels.h"
#include "distance/mindist.h"
#include "geom/line_fit.h"
#include "harness_common.h"
#include "reduction/representation.h"
#include "reduction/representation_store.h"
#include "util/table.h"
#include "util/timer.h"

namespace sapla {
namespace bench {
namespace {

struct KernelResult {
  double per_pair_mps = 0.0;  // million pairs/sec, legacy per-pair kernel
  double view_mps = 0.0;      // view kernel, per pair
  double batched_mps = 0.0;   // batched kernel over the store
};

// Runs `body(round)` until the wall clock shows at least `min_seconds`,
// returning million-evals/sec (body must evaluate `evals_per_round` pairs).
template <typename Body>
double MeasureMps(size_t evals_per_round, double min_seconds, Body body) {
  // Warm-up round (caches, and the SAX breakpoint table in the scratch).
  body();
  WallTimer timer;
  size_t rounds = 0;
  do {
    body();
    ++rounds;
  } while (timer.Seconds() < min_seconds);
  return static_cast<double>(rounds * evals_per_round) / timer.Seconds() / 1e6;
}

int Run(int argc, char** argv) {
  HarnessConfig base;
  base.n = 256;
  base.num_datasets = 4;
  base.budgets = {12, 24, 48};
  base.json_path = "BENCH_distance.json";
  const HarnessConfig config = ParseFlags(argc, argv, base);
  constexpr double kMinSeconds = 0.15;

  Table t("Distance kernels: per-pair vs columnar batched (n=" +
          std::to_string(config.n) + ", " +
          std::to_string(config.num_datasets) + " datasets x " +
          std::to_string(config.num_series) + " series)");
  t.SetHeader({"Kernel", "M", "PerPairM/s", "ViewM/s", "BatchedM/s",
               "BatchedSpeedup"});

  for (const size_t m : config.budgets) {
    // One corpus per budget: every dataset's series, reduced with SAPLA
    // (the adaptive-length method whose Dist_PAR has real merge work).
    std::vector<std::vector<double>> raw;
    for (size_t d = 0; d < config.num_datasets; ++d) {
      const Dataset ds = MakeDataset(config, d);
      for (const TimeSeries& ts : ds.series) raw.push_back(ts.values);
    }
    const auto reducer = MakeReducer(Method::kSapla);
    std::vector<Representation> reps;
    RepresentationStore store;
    for (const std::vector<double>& values : raw) {
      reps.push_back(reducer->Reduce(values, m));
      store.Append(reps.back());
    }
    const size_t count = reps.size();
    const Representation& query = reps[0];
    const RepView query_view = store.view(0);
    const PrefixFitter fitter(raw[0]);

    // Parity check before timing: all variants must agree bit-for-bit.
    {
      DistanceScratch scratch;
      std::vector<double> batch(count);
      LowerBoundDistanceBatch(query_view, store, nullptr, count, batch.data(),
                              &scratch);
      for (size_t i = 0; i < count; ++i) {
        if (batch[i] != DistPar(query, reps[i])) {
          fprintf(stderr, "FATAL: batched Dist_PAR diverges at id %zu\n", i);
          return 1;
        }
      }
    }

    KernelResult par;
    {
      double sink = 0.0;
      par.per_pair_mps = MeasureMps(count, kMinSeconds, [&] {
        for (size_t i = 0; i < count; ++i) sink += DistPar(query, reps[i]);
      });
      par.view_mps = MeasureMps(count, kMinSeconds, [&] {
        for (size_t i = 0; i < count; ++i)
          sink += DistParView(query_view, store.view(i));
      });
      DistanceScratch scratch;
      std::vector<double> out(count);
      par.batched_mps = MeasureMps(count, kMinSeconds, [&] {
        LowerBoundDistanceBatch(query_view, store, nullptr, count, out.data(),
                                &scratch);
      });
      if (sink == 42.0) printf(" ");  // defeat dead-code elimination
    }

    KernelResult lb;
    {
      double sink = 0.0;
      lb.per_pair_mps = MeasureMps(count, kMinSeconds, [&] {
        for (size_t i = 0; i < count; ++i)
          sink += FilterDistance(fitter, query, reps[i]);
      });
      DistanceScratch scratch;
      lb.view_mps = MeasureMps(count, kMinSeconds, [&] {
        for (size_t i = 0; i < count; ++i)
          sink += FilterDistanceView(fitter, query_view, store.view(i),
                                     &scratch);
      });
      std::vector<double> out(count);
      lb.batched_mps = MeasureMps(count, kMinSeconds, [&] {
        FilterDistanceBatch(fitter, query_view, store, nullptr, count,
                            out.data(), &scratch);
      });
      if (sink == 42.0) printf(" ");
    }

    auto add = [&](const char* kernel, const KernelResult& r) {
      // The speedup stays numeric (no "x" suffix): benchdiff keys row
      // identity on string cells, and a run-dependent label would make
      // every row unique.
      t.AddRow({kernel, std::to_string(m), Table::Num(r.per_pair_mps, 3),
                Table::Num(r.view_mps, 3), Table::Num(r.batched_mps, 3),
                Table::Num(r.batched_mps / r.per_pair_mps, 2)});
    };
    add("Dist_PAR", par);
    add("Dist_LB", lb);
  }

  if (!t.Print(config.CsvPath("distance_kernels"))) return 1;
  if (!config.json_path.empty() && !t.WriteJson(config.json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace sapla

int main(int argc, char** argv) { return sapla::bench::Run(argc, argv); }
