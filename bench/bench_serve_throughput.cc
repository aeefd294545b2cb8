// Serve-layer throughput: QueryEngine (precomputed core index + LRU result
// cache + thread pool) against per-query cold Solve() on the same mixed
// batch, at 1, 4 and 8 worker threads.
//
// Three configurations per dataset:
//   cold_solve          every query re-peels the graph from scratch
//                       (what tools/ticl_query does per process today)
//   engine/cache:0/...  index only — measures what the CoreIndex saves
//   engine/cache:1/...  index + cache — the steady-state serve path, where
//                       repeated queries (the batch contains each query
//                       twice) short-circuit to a cache hit
//
// plus one hit-path row:
//   hit_reply           a cache hit on a resident whole-component answer
//                       (sum, unconstrained, r = 1 at k = 4) and the
//                       reply line built from it — what a front end pays
//                       per repeated large answer
//
// Items processed = queries answered, so benchmark reports queries/sec in
// the items_per_second counter.

#include <cstddef>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/bench_env.h"
#include "serve/engine.h"
#include "serve/protocol.h"

namespace {

using ticl::bench::Dataset;
using ticl::bench::DisplayName;
using ticl::bench::UnconstrainedKSweep;

/// The batch: {sum, min, max} x k-sweep x r in {5, 10}, each query twice
/// (real query streams repeat; the duplicate is what the cache serves).
std::vector<ticl::Query> MixedBatch(ticl::StandIn dataset) {
  std::vector<ticl::Query> batch;
  for (const ticl::VertexId k : UnconstrainedKSweep(dataset)) {
    for (const auto spec :
         {ticl::AggregationSpec::Sum(), ticl::AggregationSpec::Min(),
          ticl::AggregationSpec::Max()}) {
      for (const std::uint32_t r : {5u, 10u}) {
        ticl::Query q;
        q.k = k;
        q.r = r;
        q.aggregation = spec;
        batch.push_back(q);
        batch.push_back(q);
      }
    }
  }
  return batch;
}

void BM_ColdSolve(benchmark::State& state, ticl::StandIn dataset) {
  const ticl::Graph& g = Dataset(dataset);
  const std::vector<ticl::Query> batch = MixedBatch(dataset);
  std::size_t answered = 0;
  for (auto _ : state) {
    for (const ticl::Query& q : batch) {
      const ticl::SearchResult result = ticl::Solve(g, q);
      benchmark::DoNotOptimize(result.communities.data());
      ++answered;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(answered));
}

void BM_Engine(benchmark::State& state, ticl::StandIn dataset,
               unsigned threads, bool cache) {
  // Engine construction (graph copy + core index build) is setup, not
  // steady-state serving; keep it outside the timed loop.
  ticl::EngineOptions options;
  options.num_threads = threads;
  options.cache_member_budget = cache ? (1u << 20) : 0;
  ticl::QueryEngine engine(ticl::Graph(Dataset(dataset)), options);
  const std::vector<ticl::Query> batch = MixedBatch(dataset);

  std::size_t answered = 0;
  std::vector<std::future<ticl::EngineResponse>> futures;
  futures.reserve(batch.size());
  for (auto _ : state) {
    futures.clear();
    for (const ticl::Query& q : batch) futures.push_back(engine.Submit(q));
    for (auto& future : futures) {
      const ticl::EngineResponse response = future.get();
      benchmark::DoNotOptimize(response.result->communities.data());
      ++answered;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(answered));
  const ticl::EngineStats stats = engine.stats();
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(stats.cache_hits));
}

void BM_HitReply(benchmark::State& state, ticl::StandIn dataset) {
  ticl::EngineOptions options;
  options.num_threads = 1;
  ticl::QueryEngine engine(ticl::Graph(Dataset(dataset)), options);
  // Unconstrained sum's top-1 is a whole maximal k-core component; at
  // the paper's small-group k = 4 it holds most of the graph.
  ticl::Query query;
  query.k = 4;
  query.r = 1;
  query.aggregation = ticl::AggregationSpec::Sum();
  engine.Run(query);  // the untimed solve that makes it resident

  std::size_t answered = 0;
  std::size_t reply_bytes = 0;
  for (auto _ : state) {
    const ticl::EngineResponse response = engine.Run(query);
    const std::string line = ticl::FormatResultLine(
        "1", query, response.result->stats.elapsed_seconds,
        response.cache_hit, *response.communities_json);
    benchmark::DoNotOptimize(line.data());
    reply_bytes = line.size();
    ++answered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(answered));
  state.counters["reply_bytes"] =
      benchmark::Counter(static_cast<double>(reply_bytes));
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(engine.stats().cache_hits));
}

void RegisterAll(ticl::StandIn dataset) {
  const std::string name = DisplayName(dataset);
  // UseRealTime so items_per_second is wall-clock queries/sec — pool
  // workers burn CPU the per-process clock would not see.
  const std::string cold_label = "ServeThroughput/" + name + "/cold_solve";
  benchmark::RegisterBenchmark(cold_label.c_str(), BM_ColdSolve, dataset)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  for (const bool cache : {false, true}) {
    for (const unsigned threads : {1u, 4u, 8u}) {
      const std::string label = "ServeThroughput/" + name + "/engine/cache:" +
                                (cache ? "1" : "0") +
                                "/threads:" + std::to_string(threads);
      benchmark::RegisterBenchmark(label.c_str(), BM_Engine, dataset, threads,
                                   cache)
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
  const std::string hit_label = "ServeThroughput/" + name + "/hit_reply";
  benchmark::RegisterBenchmark(hit_label.c_str(), BM_HitReply, dataset)
      ->Unit(benchmark::kMicrosecond)
      ->UseRealTime();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  RegisterAll(ticl::StandIn::kEmail);
  RegisterAll(ticl::StandIn::kDblp);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
