// Benchmarks for the extension modules (beyond the paper's evaluation):
//   1. Sliding-window subsequence search + motif discovery throughput.
//   2. Streaming SAPLA vs batch SAPLA (quality and per-point cost).

#include <cstdio>

#include "core/sapla.h"
#include "core/streaming_sapla.h"
#include "harness_common.h"
#include "search/subsequence.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace sapla {
namespace bench {
namespace {

void RunSubsequence(const HarnessConfig& config) {
  // One long recording built from a dataset's series laid end to end.
  const Dataset ds = MakeDataset(config, 5);  // EOG-like
  std::vector<double> sequence;
  for (size_t i = 0; i < std::min<size_t>(ds.size(), 20); ++i)
    sequence.insert(sequence.end(), ds.series[i].values.begin(),
                    ds.series[i].values.end());

  SubsequenceIndex::Options opt;
  opt.window = std::max<size_t>(16, config.n / 2);
  opt.stride = 2;
  opt.budget_m = config.budgets.front();
  CpuTimer build_timer;
  auto index = SubsequenceIndex::Build(sequence, opt);
  const double build_s = build_timer.Seconds();
  if (!index.ok()) return;

  std::vector<double> query(sequence.begin() + 100,
                            sequence.begin() + 100 +
                                static_cast<ptrdiff_t>(opt.window));
  CpuTimer query_timer;
  constexpr int kQueries = 20;
  for (int i = 0; i < kQueries; ++i) (*index)->Search(query, 5);
  const double query_s = query_timer.Seconds() / kQueries;

  CpuTimer motif_timer;
  size_t partner = 0;
  (*index)->FindMotif(&partner);
  const double motif_s = motif_timer.Seconds();

  Table t("Extension: subsequence search over " +
          std::to_string(sequence.size()) + " points (window " +
          std::to_string(opt.window) + ", stride 2)");
  t.SetHeader({"Operation", "CPU seconds"});
  t.AddRow({"build (" + std::to_string((*index)->num_windows()) + " windows)",
            Table::Num(build_s, 3)});
  t.AddRow({"top-5 search (per query)", Table::Num(query_s, 3)});
  t.AddRow({"best-motif discovery", Table::Num(motif_s, 3)});
  t.Print(config.CsvPath("ext_subsequence"));
}

void RunStreaming(const HarnessConfig& config) {
  const size_t n_seg = SegmentsForBudget(Method::kSapla,
                                         config.budgets.front());
  SummaryStats batch_dev, stream_dev, batch_s, stream_s;
  const size_t num_datasets = std::min<size_t>(config.num_datasets, 40);
  for (size_t d = 0; d < num_datasets; ++d) {
    const Dataset ds = MakeDataset(config, d);
    for (size_t i = 0; i < std::min<size_t>(ds.size(), 10); ++i) {
      const std::vector<double>& v = ds.series[i].values;
      {
        CpuTimer t;
        const Representation rep =
            SaplaReducer().ReduceToSegments(v, n_seg);
        batch_s.Add(t.Seconds());
        batch_dev.Add(rep.SumMaxDeviation(v));
      }
      {
        CpuTimer t;
        StreamingSapla stream(n_seg);
        for (const double x : v) stream.Append(x);
        const Representation rep = stream.Snapshot();
        stream_s.Add(t.Seconds());
        stream_dev.Add(rep.SumMaxDeviation(v));
      }
    }
  }
  Table t("Extension: streaming vs batch SAPLA (N=" + std::to_string(n_seg) +
          ", n=" + std::to_string(config.n) + ")");
  t.SetHeader({"Variant", "SumMaxDev", "CPU s/series", "Memory"});
  t.AddRow({"batch (3 phases)", Table::Num(batch_dev.mean()),
            Table::Num(batch_s.mean(), 3), "O(n)"});
  t.AddRow({"streaming (online)", Table::Num(stream_dev.mean()),
            Table::Num(stream_s.mean(), 3), "O(N)"});
  t.Print(config.CsvPath("ext_streaming"));
}

int Run(int argc, char** argv) {
  const HarnessConfig config = ParseFlags(argc, argv);
  RunSubsequence(config);
  RunStreaming(config);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace sapla

int main(int argc, char** argv) { return sapla::bench::Run(argc, argv); }
