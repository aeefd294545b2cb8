// Ablation: local search seed ordering. Algorithm 4 scans seeds in vertex-
// id order; visiting high-weight seeds first changes which communities get
// locked in early — this measures the effect on runtime and on the r-th
// influence value (effectiveness), for both TIC and TONIC. CI times it
// (BENCH_local.json) against main: LocalSearch's per-prefix k-core tests
// dominate it, so a return to scanning whole hub adjacency lists shows as a
// several-fold real_time regression.
//
// The LocalSearch/<dataset>/... family times the two LocalSearch paths
// that ignore seed order: unconstrained balanced density, where no
// candidate may beat w(V)/2, and TONIC avg at s = k + 20, where failing
// prefix k-core tests dominate. Their `peels` counter is LocalSearch's
// exact count of k-core tests, gated in CI like bench_ablation_order's.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

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

void BM_LocalSearch(benchmark::State& state, ticl::StandIn dataset,
                    const ticl::Query& query) {
  const ticl::Graph& g = Dataset(dataset);
  ticl::SearchResult result;
  for (auto _ : state) {
    result = ticl::LocalSearch(g, query);
    benchmark::DoNotOptimize(result.communities.data());
  }
  state.counters["peels"] = static_cast<double>(result.stats.peel_operations);
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
  // At TICL_SCALE=0.25, balanced density at k = 4 has 583-2250 seeds,
  // none of whose neighbourhoods can pass w(V)/2; TONIC avg at these k
  // runs 11k-43k k-core tests.
  for (const auto& [dataset, avg_k] :
       {std::pair{ticl::StandIn::kEmail, ticl::VertexId{4}},
        std::pair{ticl::StandIn::kYoutube, ticl::VertexId{4}},
        std::pair{ticl::StandIn::kOrkut, ticl::VertexId{20}}}) {
    ticl::Query balanced;
    balanced.k = 4;
    balanced.r = 5;
    balanced.aggregation = ticl::AggregationSpec::BalancedDensity();
    ticl::Query tonic_avg;
    tonic_avg.k = avg_k;
    tonic_avg.r = 5;
    tonic_avg.size_limit = avg_k + 20;
    tonic_avg.non_overlapping = true;
    tonic_avg.aggregation = ticl::AggregationSpec::Avg();
    const std::string prefix = "LocalSearch/" + DisplayName(dataset);
    for (const auto& [name, query] :
         {std::pair{prefix + "/TIC/balanced-density/k=" +
                        std::to_string(balanced.k),
                    balanced},
          std::pair{prefix + "/TONIC/avg/k=" + std::to_string(tonic_avg.k) +
                        "/s=" + std::to_string(tonic_avg.size_limit),
                    tonic_avg}}) {
      benchmark::RegisterBenchmark(
          name.c_str(),
          [dataset, query](benchmark::State& state) {
            BM_LocalSearch(state, dataset, query);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
