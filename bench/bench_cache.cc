// Post-delta cache retention: the number that justifies delta-aware
// partial invalidation. A serving engine answers a steady query mix while
// small deltas land; what matters operationally is how much of the warm
// cache survives each delta and how fast the engine is warm again.
//
//   Cache/post_delta_warm/<ds>/partial    warm a k-sweep workload, apply a
//                                         small churn delta (8 edits per
//                                         side), re-answer the workload.
//                                         Partial invalidation keeps every
//                                         k-level the delta provably did
//                                         not touch.
//   Cache/post_delta_warm/<ds>/wholesale  the baseline: the same
//                                         re-answer on a fresh engine over
//                                         the edited graph, i.e. the empty
//                                         cache a wholesale clear on every
//                                         delta would leave behind.
//
// Counters:
//   hit_rate        post-delta hits / post-delta queries (higher better;
//                    wholesale is 0 by construction)
//   kept_entries    cache entries that survived one delta sweep
//   warm_ms         wall time to re-answer the whole workload post-delta
//                    (the "time-to-warm" the README quotes; lower better)
//
// The workload sweeps k over [2, k_max] at two r values: low-k answers die
// with almost any edit (their subgraph spans most of the graph), high-k
// answers survive almost any edit — the partial hit-rate lands between, a
// function of where the churn hits the core hierarchy.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/bench_env.h"
#include "graph/graph_delta.h"
#include "serve/engine.h"
#include "util/timing.h"

namespace {

using ticl::bench::Dataset;
using ticl::bench::DisplayName;
using ticl::bench::KMax;

std::vector<ticl::Query> Workload(ticl::StandIn dataset) {
  std::vector<ticl::Query> queries;
  const ticl::VertexId k_max = KMax(dataset);
  for (ticl::VertexId k = 2; k <= k_max; ++k) {
    for (const std::uint32_t r : {1u, 5u}) {
      ticl::Query q;
      q.k = k;
      q.r = r;
      queries.push_back(q);
    }
  }
  // One level past the degeneracy: the negative-cache path.
  ticl::Query none;
  none.k = k_max + 1;
  none.r = 1;
  queries.push_back(none);
  return queries;
}

void BM_PostDeltaWarm(benchmark::State& state, ticl::StandIn dataset,
                      bool partial) {
  const ticl::Graph& g = Dataset(dataset);
  const ticl::GraphDelta delta =
      ticl::RandomDelta(g, /*seed=*/17, /*inserts=*/8, /*deletes=*/8,
                        /*weight_updates=*/2);
  const std::vector<ticl::Query> workload = Workload(dataset);

  double hits = 0, queries = 0, kept = 0, warm_ms = 0, rounds = 0;
  ticl::EngineOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    state.PauseTiming();  // engine construction + warm-up are not the story
    std::unique_ptr<ticl::QueryEngine> engine;
    if (partial) {
      engine = std::make_unique<ticl::QueryEngine>(g, options);
      for (const ticl::Query& q : workload) engine->Run(q);
      std::string error;
      if (!engine->ApplyDelta(delta, &error)) {
        state.SkipWithError(("ApplyDelta: " + error).c_str());
        break;
      }
    } else {
      engine = std::make_unique<ticl::QueryEngine>(
          ticl::ApplyDeltaToGraph(g, delta), options);
    }
    const ticl::EngineStats before = engine->stats();
    state.ResumeTiming();

    ticl::WallTimer warm_timer;
    for (const ticl::Query& q : workload) {
      benchmark::DoNotOptimize(engine->Run(q).cache_hit);
    }
    warm_ms += warm_timer.ElapsedSeconds() * 1e3;

    state.PauseTiming();
    const ticl::EngineStats after = engine->stats();
    hits += static_cast<double>(after.cache_hits - before.cache_hits);
    queries += static_cast<double>(after.queries - before.queries);
    kept += static_cast<double>(after.cache_partial_kept);
    rounds += 1;
    state.ResumeTiming();
  }
  if (queries > 0) {
    state.counters["hit_rate"] = benchmark::Counter(hits / queries);
  }
  if (rounds > 0) {
    state.counters["kept_entries"] = benchmark::Counter(kept / rounds);
    state.counters["warm_ms"] = benchmark::Counter(warm_ms / rounds);
  }
}

void RegisterAll(ticl::StandIn dataset) {
  const std::string name = DisplayName(dataset);
  benchmark::RegisterBenchmark(
      ("Cache/post_delta_warm/" + name + "/partial").c_str(),
      BM_PostDeltaWarm, dataset, /*partial=*/true)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      ("Cache/post_delta_warm/" + name + "/wholesale").c_str(),
      BM_PostDeltaWarm, dataset, /*partial=*/false)
      ->Unit(benchmark::kMillisecond);
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
