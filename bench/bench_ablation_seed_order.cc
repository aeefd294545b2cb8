// Ablation: local search seed ordering. Algorithm 4 scans seeds in vertex-
// id order; visiting high-weight seeds first changes which communities get
// locked in early — this measures the effect on runtime and on the r-th
// influence value (effectiveness), for both TIC and TONIC. CI times it
// (BENCH_local.json) against main: LocalSearch's per-prefix k-core tests
// dominate it, so a return to scanning whole hub adjacency lists shows as a
// several-fold real_time regression.

#include <benchmark/benchmark.h>

#include "common/bench_env.h"
#include "core/local_search.h"

namespace {

using ticl::bench::Dataset;
using ticl::bench::DisplayName;

void BM_SeedOrder(benchmark::State& state, ticl::StandIn dataset,
                  ticl::SeedOrder order, bool tonic) {
  const ticl::Graph& g = Dataset(dataset);
  ticl::Query query;
  query.k = 4;
  query.r = 5;
  query.size_limit = 20;
  query.non_overlapping = tonic;
  query.aggregation = ticl::AggregationSpec::Sum();
  ticl::LocalSearchOptions options;
  options.greedy = true;
  options.seed_order = order;
  ticl::SearchResult result;
  for (auto _ : state) {
    result = ticl::LocalSearch(g, query, options);
    benchmark::DoNotOptimize(result.communities.data());
  }
  state.counters["rth_influence"] =
      result.communities.empty() ? 0.0 : result.communities.back().influence;
  state.counters["seeds"] =
      static_cast<double>(result.stats.seeds_processed);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  for (const ticl::StandIn dataset :
       {ticl::StandIn::kEmail, ticl::StandIn::kYoutube,
        ticl::StandIn::kOrkut}) {
    for (const bool tonic : {false, true}) {
      for (const auto order :
           {ticl::SeedOrder::kVertexId, ticl::SeedOrder::kDescendingWeight}) {
        const std::string name =
            "AblationSeedOrder/" + DisplayName(dataset) +
            (tonic ? "/TONIC" : "/TIC") +
            (order == ticl::SeedOrder::kVertexId ? "/ById" : "/ByWeight");
        benchmark::RegisterBenchmark(
            name.c_str(),
            [dataset, order, tonic](benchmark::State& state) {
              BM_SeedOrder(state, dataset, order, tonic);
            })
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
