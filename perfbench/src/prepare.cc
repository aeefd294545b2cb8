#include "prepare.h"

#include <cstdio>
#include <unordered_set>

#include "algo/core_decomposition.h"
#include "algo/weights.h"
#include "gen/dataset_suite.h"
#include "graph/graph_delta.h"
#include "serve/core_index.h"
#include "serve/snapshot.h"

namespace perfbench {

namespace {

std::uint64_t EdgeKey(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// One delta against `g` whose every edit touches a vertex of core number
// <= spec.core_cut. One reweighted vertex sits exactly at the cut, so
// every delta evicts the cached answers up to that level.
ticl::GraphDelta LowCoreDelta(const ticl::Graph& g,
                              const std::vector<ticl::VertexId>& core,
                              const DeltaSpec& spec, Rng* rng) {
  std::vector<std::uint32_t> low, at_cut;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    if (core[v] >= 1 && core[v] <= spec.core_cut) low.push_back(v);
    if (core[v] == spec.core_cut) at_cut.push_back(v);
  }
  ticl::GraphDelta delta;
  std::unordered_set<std::uint64_t> used;
  while (delta.delete_edges.size() < spec.deletes) {
    const std::uint32_t u = low[rng->Next() % low.size()];
    const auto neighbors = g.neighbors(u);
    const std::uint32_t v = neighbors[rng->Next() % neighbors.size()];
    if (used.insert(EdgeKey(u, v)).second) delta.delete_edges.push_back({u, v});
  }
  while (delta.insert_edges.size() < spec.inserts) {
    const std::uint32_t u = low[rng->Next() % low.size()];
    const auto v = static_cast<std::uint32_t>(rng->Next() % g.num_vertices());
    if (u == v || g.HasEdge(u, v)) continue;
    if (used.insert(EdgeKey(u, v)).second) delta.insert_edges.push_back({u, v});
  }
  std::unordered_set<std::uint32_t> reweighted;
  while (delta.weight_updates.size() < spec.reweights) {
    const std::vector<std::uint32_t>& pool =
        delta.weight_updates.empty() && !at_cut.empty() ? at_cut : low;
    const std::uint32_t v = pool[rng->Next() % pool.size()];
    if (!reweighted.insert(v).second) continue;
    delta.weight_updates.push_back({v, g.weight(v) * (0.5 + rng->Unit())});
  }
  return delta;
}

}  // namespace

bool PrepareBase(const std::string& path, std::string* error) {
  ticl::Graph g = ticl::GenerateStandIn(ticl::StandIn::kDblp, 40.0);
  ticl::AssignWeights(&g, ticl::WeightScheme::kPageRank, 1);
  const ticl::CoreIndex index(g);
  ticl::SaveSnapshotOptions options;
  options.core_index = &index;
  return ticl::SaveSnapshot(path, g, options, error);
}

bool LoadCheckGraph(const std::string& path, CheckGraph* out,
                    std::string* error) {
  ticl::Graph g;
  if (!ticl::LoadSnapshot(path, &g, error)) return false;
  out->n = g.num_vertices();
  out->offsets.assign(g.offsets().begin(), g.offsets().end());
  out->adjacency.assign(g.adjacency().begin(), g.adjacency().end());
  out->weights.assign(g.weights().begin(), g.weights().end());
  return true;
}

bool PrepareDeltas(const std::string& base_path, const Plan& plan,
                   const std::string& dir, std::vector<std::string>* paths,
                   std::vector<CheckDelta>* edits, std::string* error) {
  ticl::Graph g;
  if (!ticl::LoadSnapshot(base_path, &g, error)) return false;
  Rng rng(plan.seed ^ 0xDE17Aull);
  for (std::uint32_t i = 0; i < plan.num_deltas; ++i) {
    const std::vector<ticl::VertexId> core = ticl::CoreDecomposition(g).core;
    const ticl::GraphDelta delta = LowCoreDelta(g, core, plan.delta_spec, &rng);
    const std::string problem = ticl::ValidateDelta(g, delta);
    if (!problem.empty()) {
      *error = "generated delta is invalid: " + problem;
      return false;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "/delta-%02u.snap", i);
    const std::string path = dir + name;
    if (!ticl::SaveDeltaSnapshot(path, delta, g.fingerprint(), error)) {
      return false;
    }
    paths->push_back(path);
    CheckDelta check;
    for (const ticl::Edge& e : delta.delete_edges) check.deletes.emplace_back(e.u, e.v);
    for (const ticl::Edge& e : delta.insert_edges) check.inserts.emplace_back(e.u, e.v);
    for (const ticl::WeightUpdate& w : delta.weight_updates) {
      check.reweights.emplace_back(w.vertex, w.weight);
    }
    edits->push_back(std::move(check));
    g = ticl::ApplyValidatedDelta(g, delta);
  }
  return true;
}

}  // namespace perfbench
