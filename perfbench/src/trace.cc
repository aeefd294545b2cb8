#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "algo/core_decomposition.h"
#include "algo/core_maintenance.h"
#include "core/search.h"
#include "drive.h"
#include "graph/graph_delta.h"
#include "serve/core_index.h"
#include "serve/engine.h"
#include "serve/mapped_snapshot.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Runs fn(i) for i in [0, n) on `threads` threads.
void Parallel(std::size_t n, unsigned threads,
              const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      std::size_t i;
      while ((i = next.fetch_add(1)) < n) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// Median microseconds per call of fn, timed in batches of `batch` calls.
double MedianUs(int batches, int batch, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    samples.push_back(MsSince(start) * 1000.0 / batch);
  }
  return Quantile(samples, 0.5);
}

// Solver groups as AutoSolverFor names them, each with one probe query
// used when the workload's own stream has none of that group.
struct Group {
  const char* name;
  BenchQuery probe;
};

std::vector<Group> Groups() {
  BenchQuery improved, local, min_peel, max_components;
  improved.f = Agg::kSum;
  improved.tonic = true;
  improved.k = 40;
  improved.r = 3;
  local.f = Agg::kAvg;
  local.k = 24;
  local.r = 1;
  local.s = 44;
  min_peel.f = Agg::kMin;
  min_peel.k = 24;
  min_peel.r = 3;
  max_components.f = Agg::kMax;
  max_components.k = 40;
  max_components.r = 3;
  return {{"improved", improved},
          {"local-greedy", local},
          {"min-peel", min_peel},
          {"max-components", max_components}};
}

std::vector<Community> ToCommunities(const ticl::SearchResult& result) {
  std::vector<Community> out;
  for (const ticl::Community& c : result.communities) {
    out.push_back({c.influence, {c.members.begin(), c.members.end()}});
  }
  return out;
}

}  // namespace

bool Trace(const Plan& plan, const TraceInputs& in, Outcome* out,
           std::string* error) {
  // snapshot: open with mmap, as the server does.
  std::vector<double> open_ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    auto engine = ticl::QueryEngine::OpenSnapshot(
        in.snapshot_path, ticl::SnapshotLoadMode::kMmap, {}, error);
    open_ms.push_back(MsSince(start));
    if (engine == nullptr) return false;
  }
  out->Add("snapshot.open_ms", Quantile(open_ms, 0.5), "ms");

  // protocol: parse the stream's request lines.
  std::vector<BenchQuery> queries = plan.queries;
  const std::vector<Group> groups = Groups();
  std::vector<ticl::Query> parsed(queries.size());
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    lines.push_back(RequestLine(queries[i], i + 1));
    lines.back().pop_back();  // the server hands lines over without '\n'
  }
  ticl::ParsedRequest request;
  std::size_t cursor = 0;
  out->Add("protocol.parse_us", MedianUs(50, 200, [&] {
             ticl::ParseRequestLine(lines[cursor], 1, &request, error);
             cursor = (cursor + 1) % lines.size();
           }), "us");
  const auto parse = [&](const BenchQuery& q, ticl::Query* tq) {
    std::string line = RequestLine(q, 1);
    line.pop_back();
    if (!ticl::ParseRequestLine(line, 1, &request, error)) return false;
    *tq = request.query;
    return true;
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!parse(queries[i], &parsed[i])) return false;
  }

  // core: Solve each distinct query of the stream, grouped by the solver
  // AutoSolverFor picks; groups the stream lacks get their probe query.
  std::map<std::string, bool> covered;
  for (const ticl::Query& q : parsed) {
    covered[ticl::SolverKindName(ticl::AutoSolverFor(q))] = true;
  }
  for (const Group& g : groups) {
    if (covered[g.name]) continue;
    queries.push_back(g.probe);
    parsed.emplace_back();
    if (!parse(g.probe, &parsed.back())) return false;
  }
  std::unique_ptr<ticl::MappedSnapshot> mapped =
      ticl::MappedSnapshot::Open(in.snapshot_path, error);
  if (mapped == nullptr) return false;
  const ticl::Graph& graph = mapped->graph();
  ticl::SolveOptions solve;
  solve.core_index = &mapped->core_index();
  std::vector<ticl::SearchResult> results(parsed.size());
  std::vector<double> solve_ms(parsed.size());
  Parallel(parsed.size(), kConnections, [&](std::size_t i) {
    const Clock::time_point start = Clock::now();
    results[i] = ticl::Solve(graph, parsed[i], solve);
    solve_ms[i] = MsSince(start);
  });
  Checker checker(in.base);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    std::fprintf(stderr, "[perfbench] solve %-36s %-14s %10.1f ms\n",
                 Describe(queries[i]).c_str(),
                 ticl::SolverKindName(ticl::AutoSolverFor(parsed[i])).c_str(),
                 solve_ms[i]);
    ++out->attempted;
    const std::string problem =
        checker.Check(queries[i], ToCommunities(results[i]));
    if (!problem.empty()) {
      out->Fail(queries[i].known_fault, Describe(queries[i]) + ": " + problem);
    }
  }
  for (const Group& g : groups) {
    std::vector<double> ms;
    ticl::SearchStats total;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      if (ticl::SolverKindName(ticl::AutoSolverFor(parsed[i])) != g.name) {
        continue;
      }
      ms.push_back(solve_ms[i]);
      const ticl::SearchStats& s = results[i].stats;
      total.peel_operations += s.peel_operations;
      total.candidates_pruned += s.candidates_pruned;
      total.candidates_generated += s.candidates_generated;
      total.seeds_processed += s.seeds_processed;
    }
    const std::string suffix = std::string(".") + g.name;
    out->Add("core.solve_ms" + suffix, Quantile(ms, 0.5), "ms");
    out->Add("core.peel_operations" + suffix,
             static_cast<double>(total.peel_operations), "count");
    out->Add("core.candidates_pruned" + suffix,
             static_cast<double>(total.candidates_pruned), "count");
    out->Add("core.candidates_generated" + suffix,
             static_cast<double>(total.candidates_generated), "count");
    out->Add("core.seeds_processed" + suffix,
             static_cast<double>(total.seeds_processed), "count");
  }

  // core_index: seeding the k-core components at each k of the stream.
  std::vector<double> seed_ms;
  for (const ticl::Query& q : parsed) {
    const Clock::time_point start = Clock::now();
    const auto components =
        ticl::IndexedKCoreComponents(solve.core_index, graph, q.k);
    seed_ms.push_back(MsSince(start));
  }
  out->Add("core_index.seed_ms", Quantile(seed_ms, 0.5), "ms");

  // protocol: formatting a small and the largest reply of the stream;
  // server.reply_bytes is the mean reply over the stream's queries.
  std::vector<std::pair<std::size_t, std::size_t>> sizes;  // (bytes, i)
  double total_bytes = 0.0;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const std::size_t bytes =
        ticl::FormatResultLine("1", parsed[i], results[i], true).size();
    sizes.emplace_back(bytes, i);
    total_bytes += static_cast<double>(bytes);
  }
  std::sort(sizes.begin(), sizes.end());
  const std::size_t small = sizes[sizes.size() / 4].second;
  const std::size_t large = sizes.back().second;
  out->Add("protocol.format_us.small", MedianUs(25, 200, [&] {
             ticl::FormatResultLine("1", parsed[small], results[small], true);
           }), "us");
  out->Add("protocol.format_us.large", MedianUs(15, 3, [&] {
             ticl::FormatResultLine("1", parsed[large], results[large], true);
           }), "us");
  out->Add("server.reply_bytes",
           total_bytes / static_cast<double>(parsed.size()), "bytes");

  // engine + result_cache: replay the stream through a QueryEngine.
  ticl::EngineOptions options;
  options.num_threads = kServerThreads;
  auto engine = ticl::QueryEngine::OpenSnapshot(
      in.snapshot_path, ticl::SnapshotLoadMode::kMmap, options, error);
  if (engine == nullptr) return false;
  const std::size_t n = plan.queries.size();
  const auto run_passes = [&](unsigned threads, int passes) {
    Parallel(threads * static_cast<std::size_t>(passes), threads,
             [&](std::size_t job) {
               const auto& order = plan.conn_orders[job % threads];
               for (const std::uint32_t idx : order) engine->Run(parsed[idx]);
             });
  };
  std::vector<double> engine_apply_ms;
  std::vector<ticl::GraphDelta> deltas(plan.num_deltas);
  std::vector<ticl::GraphFingerprint> parents(plan.num_deltas);
  std::vector<double> load_ms;
  for (std::uint32_t i = 0; i < plan.num_deltas; ++i) {
    const Clock::time_point start = Clock::now();
    if (!ticl::LoadDeltaSnapshot(in.delta_paths[i], &deltas[i], &parents[i],
                                 error)) {
      return false;
    }
    load_ms.push_back(MsSince(start));
  }
  const auto apply = [&](std::uint32_t i) {
    const Clock::time_point start = Clock::now();
    const bool ok = engine->ApplyDelta(deltas[i], &parents[i], error);
    engine_apply_ms.push_back(MsSince(start));
    return ok;
  };
  const ticl::EngineStats before = engine->stats();
  if (plan.workload == "solve-mix") {
    Parallel(n, kConnections, [&](std::size_t i) {
      engine->Run(parsed[plan.round_order[i]]);
    });
  } else {
    const unsigned readers = static_cast<unsigned>(plan.conn_orders.size());
    Parallel(n, readers, [&](std::size_t i) { engine->Run(parsed[i]); });
    if (plan.workload == "hit-storm") {
      run_passes(readers, 50);
    } else {
      for (std::uint32_t i = 0; i < plan.scheduled_deltas; ++i) {
        run_passes(readers, 5);
        if (!apply(i)) return false;
      }
      run_passes(readers, 5);
    }
  }
  const ticl::EngineStats after = engine->stats();
  out->Add("result_cache.hit_ratio",
           static_cast<double>(after.cache_hits - before.cache_hits) /
               static_cast<double>(after.queries - before.queries),
           "ratio");

  // engine: hits on the warm cache, one thread and four.
  for (std::size_t i = 0; i < n; ++i) engine->Run(parsed[i]);
  cursor = 0;
  out->Add("engine.hit_us", MedianUs(50, 100, [&] {
             engine->Run(parsed[cursor]);
             cursor = (cursor + 1) % n;
           }), "us");
  for (const unsigned threads : {1u, 4u}) {
    std::atomic<std::uint64_t> calls{0};
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        std::uint64_t local = 0;
        for (std::size_t i = t; MsSince(start) < 500.0; i = (i + 1) % n) {
          engine->Run(parsed[i]);
          ++local;
        }
        calls += local;
      });
    }
    for (std::thread& th : pool) th.join();
    out->Add(threads == 1 ? "engine.hit_qps_1t" : "engine.hit_qps_4t",
             static_cast<double>(calls.load()) / (MsSince(start) / 1000.0),
             "1/s");
  }

  // Deltas on the warm cache (churn applied its chain during the replay).
  const ticl::EngineStats pre_delta = plan.workload == "churn" ? before
                                                               : engine->stats();
  if (plan.workload != "churn") {
    for (std::uint32_t i = 0; i < plan.num_deltas; ++i) {
      if (!apply(i)) return false;
    }
  }
  const ticl::EngineStats post_delta = engine->stats();
  out->Add("result_cache.partial_kept",
           static_cast<double>(post_delta.cache_partial_kept -
                               pre_delta.cache_partial_kept),
           "count");
  out->Add("result_cache.partial_evicted",
           static_cast<double>(post_delta.cache_partial_evicted -
                               pre_delta.cache_partial_evicted),
           "count");
  out->Add("engine.apply_delta_ms", Quantile(engine_apply_ms, 0.5), "ms");
  out->Add("snapshot.delta_load_ms", Quantile(load_ms, 0.5), "ms");
  engine.reset();

  // graph + algo: the same chain applied layer by layer.
  ticl::Graph g;
  if (!ticl::LoadSnapshot(in.snapshot_path, &g, error)) return false;
  std::vector<ticl::VertexId> core = ticl::CoreDecomposition(g).core;
  std::vector<double> graph_ms, maintain_ms, rebuild_ms;
  double visited = 0.0;
  for (std::uint32_t i = 0; i < plan.num_deltas; ++i) {
    Clock::time_point start = Clock::now();
    ticl::Graph next = ticl::ApplyDeltaToGraph(g, deltas[i]);
    graph_ms.push_back(MsSince(start));
    start = Clock::now();
    ticl::CoreMaintainer maintainer(g, core);
    for (const ticl::Edge& e : deltas[i].delete_edges) {
      maintainer.DeleteEdge(e.u, e.v);
    }
    for (const ticl::Edge& e : deltas[i].insert_edges) {
      maintainer.InsertEdge(e.u, e.v);
    }
    maintain_ms.push_back(MsSince(start));
    visited += static_cast<double>(maintainer.visited_vertices());
    start = Clock::now();
    const ticl::CoreDecompositionResult rebuilt = ticl::CoreDecomposition(next);
    rebuild_ms.push_back(MsSince(start));
    if (rebuilt.core != maintainer.core_numbers()) {
      out->Fail(false, "maintained core numbers differ from a rebuild");
    }
    core = maintainer.TakeCoreNumbers();
    g = std::move(next);
  }
  out->Add("graph.apply_delta_ms", Quantile(graph_ms, 0.5), "ms");
  out->Add("algo.core_maintenance_ms", Quantile(maintain_ms, 0.5), "ms");
  out->Add("algo.core_maintenance_visited", visited, "count");
  out->Add("algo.core_decomposition_ms", Quantile(rebuild_ms, 0.5), "ms");

  // server: admin ping round trip over loopback.
  const double ping_us =
      MeasurePing(in.served_binary, in.snapshot_path, 500, error);
  if (ping_us < 0) return false;
  out->Add("server.ping_us", ping_us, "us");
  return true;
}

}  // namespace perfbench
