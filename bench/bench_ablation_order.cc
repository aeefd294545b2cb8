// Ablation: Algorithm 2's best-first (L_max-first) candidate expansion vs
// FIFO expansion. Both are exact (the top-r fixpoint is order-independent)
// but best-first reaches it with fewer expansions — this quantifies the
// gap. The `peels` counter is exact and repeats run to run, so CI gates on
// it (BENCH_solve.json): a return of the quadratic member-by-member
// expansion shows there without timing noise.

#include <benchmark/benchmark.h>

#include "common/bench_env.h"
#include "core/improved_search.h"

namespace {

using ticl::bench::Dataset;
using ticl::bench::DefaultK;
using ticl::bench::DisplayName;

void BM_Order(benchmark::State& state, ticl::StandIn dataset,
              bool best_first) {
  const ticl::Graph& g = Dataset(dataset);
  ticl::Query query;
  query.k = DefaultK(dataset);
  query.r = 5;
  query.aggregation = ticl::AggregationSpec::Sum();
  ticl::ImprovedOptions options;
  options.best_first = best_first;
  ticl::SearchResult result;
  for (auto _ : state) {
    result = ticl::ImprovedSearch(g, query, options);
    benchmark::DoNotOptimize(result.communities.data());
  }
  state.counters["peels"] = static_cast<double>(result.stats.peel_operations);
  state.counters["candidates"] =
      static_cast<double>(result.stats.candidates_generated);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const ticl::StandIn dataset :
       {ticl::StandIn::kEmail, ticl::StandIn::kDblp,
        ticl::StandIn::kLiveJournal}) {
    for (const bool best_first : {true, false}) {
      benchmark::RegisterBenchmark(
          ("AblationOrder/" + DisplayName(dataset) +
           (best_first ? "/BestFirst" : "/Fifo"))
              .c_str(),
          [dataset, best_first](benchmark::State& state) {
            BM_Order(state, dataset, best_first);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
