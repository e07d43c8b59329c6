#include "search/search_index.h"

#include "util/parallel.h"

namespace sapla {

// Batch workers re-bind the per-request context (options.trace_of) before
// searching: the batch mixes requests from many clients, and each query's
// spans must stitch into its own submitter's trace tree.
std::vector<KnnResult> SearchIndex::SearchBatch(
    const std::vector<std::vector<double>>& queries, const QuerySpec& spec,
    const BatchOptions& options) const {
  std::vector<KnnResult> results(queries.size());
  ParallelFor(
      0, queries.size(),
      [&](size_t i) {
        if (options.cancel && options.cancel(i)) return;
        const obs::TraceContext ctx = options.trace_of
                                          ? options.trace_of(i)
                                          : obs::CurrentTraceContext();
        obs::TraceContextScope trace_scope(ctx);
        SAPLA_TRACE_SPAN("batch/query");
        obs::QueryExplain* explain =
            options.explain_of ? options.explain_of(i) : nullptr;
        results[i] = Search(queries[i], spec, explain);
      },
      options.num_threads);
  return results;
}

}  // namespace sapla
