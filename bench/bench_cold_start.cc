// Cold start: time from process-has-nothing to first query answered, the
// metric the zero-copy storage spine exists to crush.
//
// Four configurations per dataset, each iteration doing the full start-up
// plus one Run():
//   text_parse_pagerank   parse the SNAP text edge list, run PageRank,
//                         build the engine (core decomposition), answer
//                         (what a from-scratch deployment pays)
//   snapshot_v2_copy      v2 snapshot without an index section: copy-load
//                         the arrays, run the decomposition, answer
//   snapshot_v2_copy_index v2 snapshot with embedded CoreIndex, copy-load:
//                         arrays and index are copied, decomposition skipped
//   snapshot_v2_mmap_index v2 snapshot with embedded CoreIndex, mmap'd:
//                         no CSR/weights copy, no decomposition — start-up
//                         work is one validation/checksum pass
//
// Expected shape: text >> v2_copy > mmap_index, with the gap
// between copy and mmap growing linearly in graph size.

#include <string>
#include <unordered_map>

#include <benchmark/benchmark.h>

#include "algo/weights.h"
#include "common/bench_env.h"
#include "graph/edge_list_io.h"
#include "serve/core_index.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "util/check.h"
#include "util/timing.h"

namespace {

using ticl::bench::Dataset;
using ticl::bench::DefaultK;
using ticl::bench::DisplayName;

struct ColdStartFiles {
  std::string text_path;
  std::string v2_path;
  std::string v2_index_path;
};

/// Writes the dataset once per process in every on-disk format compared.
const ColdStartFiles& Files(ticl::StandIn dataset) {
  static std::unordered_map<int, ColdStartFiles> cache;
  const auto it = cache.find(static_cast<int>(dataset));
  if (it != cache.end()) return it->second;

  const ticl::Graph& g = Dataset(dataset);
  ColdStartFiles files;
  const std::string base = "/tmp/ticl_cold_start_" + DisplayName(dataset);
  files.text_path = base + ".txt";
  files.v2_path = base + ".v2.snap";
  files.v2_index_path = base + ".v2idx.snap";

  std::string error;
  TICL_CHECK_MSG(ticl::SaveEdgeList(files.text_path, g, &error),
                 error.c_str());
  TICL_CHECK_MSG(ticl::SaveSnapshot(files.v2_path, g, &error),
                 error.c_str());
  const ticl::CoreIndex index(g);
  ticl::SaveSnapshotOptions v2_index;
  v2_index.core_index = &index;
  TICL_CHECK_MSG(
      ticl::SaveSnapshot(files.v2_index_path, g, v2_index, &error),
      error.c_str());
  return cache.emplace(static_cast<int>(dataset), std::move(files))
      .first->second;
}

/// The first query is deliberately cheap (max = components of the k-core,
/// straight off the index) so the measurement is dominated by start-up
/// cost, not solver cost.
ticl::Query FirstQuery(ticl::StandIn dataset) {
  ticl::Query q;
  q.k = DefaultK(dataset);
  q.r = 5;
  q.aggregation = ticl::AggregationSpec::Max();
  return q;
}

ticl::EngineOptions ColdEngineOptions() {
  ticl::EngineOptions options;
  options.num_threads = 1;
  options.cache_member_budget = 0;  // measuring start-up, not cache hits
  return options;
}

void BM_TextParsePageRank(benchmark::State& state, ticl::StandIn dataset) {
  const ColdStartFiles& files = Files(dataset);
  const ticl::Query query = FirstQuery(dataset);
  double startup_seconds = 0.0;
  for (auto _ : state) {
    ticl::WallTimer startup;
    ticl::Graph g;
    std::string error;
    if (!ticl::LoadEdgeList(files.text_path, &g, &error)) {
      state.SkipWithError(error.c_str());
      break;
    }
    ticl::AssignWeights(&g, ticl::WeightScheme::kPageRank, 1);
    ticl::QueryEngine engine(std::move(g), ColdEngineOptions());
    startup_seconds += startup.ElapsedSeconds();
    const ticl::EngineResponse response = engine.Run(query);
    benchmark::DoNotOptimize(response.result->communities.data());
  }
  state.counters["startup_ms"] = benchmark::Counter(
      1e3 * startup_seconds / static_cast<double>(state.iterations()));
}

void BM_SnapshotColdStart(benchmark::State& state, ticl::StandIn dataset,
                          const std::string ColdStartFiles::* path,
                          ticl::SnapshotLoadMode mode) {
  const ColdStartFiles& files = Files(dataset);
  const ticl::Query query = FirstQuery(dataset);
  double startup_seconds = 0.0;
  for (auto _ : state) {
    ticl::WallTimer startup;
    std::string error;
    const auto engine = ticl::QueryEngine::OpenSnapshot(
        files.*path, mode, ColdEngineOptions(), &error);
    if (engine == nullptr) {
      state.SkipWithError(error.c_str());
      break;
    }
    startup_seconds += startup.ElapsedSeconds();
    const ticl::EngineResponse response = engine->Run(query);
    benchmark::DoNotOptimize(response.result->communities.data());
  }
  state.counters["startup_ms"] = benchmark::Counter(
      1e3 * startup_seconds / static_cast<double>(state.iterations()));
}

void RegisterAll(ticl::StandIn dataset) {
  const std::string name = DisplayName(dataset);
  const std::string prefix = "ColdStart/" + name + "/";
  benchmark::RegisterBenchmark((prefix + "text_parse_pagerank").c_str(),
                               BM_TextParsePageRank, dataset)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark((prefix + "snapshot_v2_copy").c_str(),
                               BM_SnapshotColdStart, dataset,
                               &ColdStartFiles::v2_path,
                               ticl::SnapshotLoadMode::kCopy)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark((prefix + "snapshot_v2_copy_index").c_str(),
                               BM_SnapshotColdStart, dataset,
                               &ColdStartFiles::v2_index_path,
                               ticl::SnapshotLoadMode::kCopy)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark((prefix + "snapshot_v2_mmap_index").c_str(),
                               BM_SnapshotColdStart, dataset,
                               &ColdStartFiles::v2_index_path,
                               ticl::SnapshotLoadMode::kMmap)
      ->Unit(benchmark::kMillisecond)
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
