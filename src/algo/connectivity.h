// Connectivity primitives: whole-graph components, components of a vertex
// subset, the "connected k-core" test of a small vertex set, and bounded BFS
// neighbourhood collection (the "s-nearest neighbours" primitive of the
// paper's local search).

#ifndef TICL_ALGO_CONNECTIVITY_H_
#define TICL_ALGO_CONNECTIVITY_H_

#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ticl {

/// Labels every vertex with a component id in [0, num_components).
struct ComponentLabels {
  std::vector<VertexId> label;
  VertexId num_components = 0;
};

/// Connected components of the whole graph (BFS).
ComponentLabels ConnectedComponents(const Graph& g);

/// Connected components of the subgraph induced by `members`.
/// Each returned component is sorted ascending. `members` must not contain
/// duplicates. Complexity O(sum of member degrees). Takes a span so callers
/// holding zero-copy views (CoreIndex member lists over a mapped snapshot)
/// avoid materializing a vector.
std::vector<VertexList> ComponentsOfSubset(const Graph& g,
                                           std::span<const VertexId> members);

/// True if the subgraph induced by `members` is connected (empty sets and
/// singletons count as connected).
bool IsSubsetConnected(const Graph& g, const VertexList& members);

/// True if `sorted_members` induces a connected subgraph of minimum degree
/// >= k (Definition 3's structure test; empty sets and singletons count as
/// connected). Precondition: `sorted_members` is sorted ascending and
/// duplicate-free. Every adjacency test walks the shorter of a member's
/// adjacency list and the member list and binary-searches the longer, so a
/// call costs O(sum over members of min(deg, |C|) * log) and never scans a
/// hub's whole list: local search asks this of many small prefixes that
/// contain the graph's highest-degree vertices.
bool IsConnectedKCore(const Graph& g, std::span<const VertexId> sorted_members,
                      VertexId k);

/// Collects up to `limit` vertices in BFS order from `seed` (seed included,
/// distance ties broken by adjacency order, which is ascending vertex id).
/// `allowed` filters which vertices may be visited; it must accept the seed.
/// This realizes the paper's s-nearest-neighbour expansion: when the 1-hop
/// ball is too small the search continues to 2 hops and beyond. Scratch
/// memory grows with the vertices collected, never with the graph.
VertexList CollectNearestNeighbors(
    const Graph& g, VertexId seed, std::size_t limit,
    const std::function<bool(VertexId)>& allowed);

}  // namespace ticl

#endif  // TICL_ALGO_CONNECTIVITY_H_
