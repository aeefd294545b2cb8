#include "algo/connectivity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <unordered_set>

#include "algo/kcore_peeler.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace ticl {
namespace {

using testing::Members;
using testing::PathGraph;
using testing::TwoTrianglesAndK4;

/// Reference BFS: a deque frontier and a hash-set visited set, expanding
/// neighbours in adjacency order.
VertexList ReferenceNearestNeighbors(
    const Graph& g, VertexId seed, std::size_t limit,
    const std::function<bool(VertexId)>& allowed) {
  VertexList collected;
  if (limit == 0) return collected;
  std::unordered_set<VertexId> visited{seed};
  std::deque<VertexId> frontier{seed};
  collected.push_back(seed);
  while (!frontier.empty() && collected.size() < limit) {
    const VertexId v = frontier.front();
    frontier.pop_front();
    for (const VertexId nbr : g.neighbors(v)) {
      if (visited.contains(nbr) || !allowed(nbr)) continue;
      visited.insert(nbr);
      frontier.push_back(nbr);
      collected.push_back(nbr);
      if (collected.size() == limit) break;
    }
  }
  return collected;
}

/// Smallest induced degree of `members` (sorted), by a dense count.
VertexId MinInducedDegree(const Graph& g, const VertexList& members) {
  std::vector<std::uint8_t> in_set(g.num_vertices(), 0);
  for (const VertexId v : members) in_set[v] = 1;
  VertexId min_degree = std::numeric_limits<VertexId>::max();
  for (const VertexId v : members) {
    VertexId deg = 0;
    for (const VertexId nbr : g.neighbors(v)) deg += in_set[nbr];
    min_degree = std::min(min_degree, deg);
  }
  return min_degree;
}

/// Reference "connected k-core" test: dense induced degrees, then
/// IsSubsetConnected.
bool ReferenceConnectedKCore(const Graph& g, const VertexList& members,
                             VertexId k) {
  if (members.empty()) return true;
  return MinInducedDegree(g, members) >= k && IsSubsetConnected(g, members);
}

/// Checks IsConnectedKCore against the reference at k = 0, 1, the set's
/// minimum induced degree d, d + 1 and d + 2 (so both "min degree exactly
/// k" and "exactly k - 1" are asked of every set).
void ExpectKCoreTestMatchesReference(const Graph& g, VertexList members) {
  std::sort(members.begin(), members.end());
  const VertexId d = members.empty() ? 0 : MinInducedDegree(g, members);
  for (const VertexId k : {0u, 1u, d, d + 1, d + 2}) {
    EXPECT_EQ(IsConnectedKCore(g, members, k),
              ReferenceConnectedKCore(g, members, k))
        << "k=" << k << " |C|=" << members.size() << " d=" << d;
  }
}

TEST(ConnectedComponentsTest, FixtureHasTwoComponents) {
  const Graph g = TwoTrianglesAndK4();
  const ComponentLabels labels = ConnectedComponents(g);
  EXPECT_EQ(labels.num_components, 2u);
  EXPECT_EQ(labels.label[0], labels.label[5]);
  EXPECT_EQ(labels.label[6], labels.label[9]);
  EXPECT_NE(labels.label[0], labels.label[6]);
}

TEST(ConnectedComponentsTest, IsolatedVerticesAreSingletons) {
  GraphBuilder b;
  b.SetNumVertices(4);
  b.AddEdge(0, 1);
  const Graph g = b.Build();
  const ComponentLabels labels = ConnectedComponents(g);
  EXPECT_EQ(labels.num_components, 3u);
}

TEST(ConnectedComponentsTest, EmptyGraph) {
  const Graph g;
  const ComponentLabels labels = ConnectedComponents(g);
  EXPECT_EQ(labels.num_components, 0u);
  EXPECT_TRUE(labels.label.empty());
}

TEST(ComponentsOfSubsetTest, SplitsBridgelessSubset) {
  const Graph g = TwoTrianglesAndK4();
  // Dropping the bridge endpoints splits {0,1} from {4,5}.
  const auto components = ComponentsOfSubset(g, Members({0, 1, 4, 5}));
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], Members({0, 1}));
  EXPECT_EQ(components[1], Members({4, 5}));
}

TEST(ComponentsOfSubsetTest, WholeComponentStaysTogether) {
  const Graph g = TwoTrianglesAndK4();
  const auto components =
      ComponentsOfSubset(g, Members({0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].size(), 6u);
}

TEST(ComponentsOfSubsetTest, EmptySubset) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_TRUE(ComponentsOfSubset(g, {}).empty());
}

TEST(ComponentsOfSubsetTest, SingletonsWithoutEdges) {
  const Graph g = TwoTrianglesAndK4();
  const auto components = ComponentsOfSubset(g, Members({0, 9}));
  EXPECT_EQ(components.size(), 2u);
}

TEST(IsSubsetConnectedTest, Cases) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_TRUE(IsSubsetConnected(g, Members({0, 1, 2})));
  EXPECT_TRUE(IsSubsetConnected(g, Members({2, 3})));       // bridge
  EXPECT_FALSE(IsSubsetConnected(g, Members({0, 1, 4})));   // gap
  EXPECT_FALSE(IsSubsetConnected(g, Members({0, 6})));      // components
  EXPECT_TRUE(IsSubsetConnected(g, Members({7})));          // singleton
  EXPECT_TRUE(IsSubsetConnected(g, {}));                    // empty
}

TEST(IsConnectedKCoreTest, Cases) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_TRUE(IsConnectedKCore(g, Members({6, 7, 8, 9}), 3));   // K4
  EXPECT_FALSE(IsConnectedKCore(g, Members({6, 7, 8, 9}), 4));
  EXPECT_TRUE(IsConnectedKCore(g, Members({0, 1, 2}), 2));      // triangle
  EXPECT_FALSE(IsConnectedKCore(g, Members({0, 1, 2, 3}), 2));  // 3 hangs
  EXPECT_TRUE(IsConnectedKCore(g, Members({0, 1, 2, 3}), 1));
  EXPECT_FALSE(IsConnectedKCore(g, Members({0, 1, 2, 6, 7, 8}), 2));
  EXPECT_TRUE(IsConnectedKCore(g, Members({7}), 0));            // singleton
  EXPECT_FALSE(IsConnectedKCore(g, Members({7}), 1));
  EXPECT_TRUE(IsConnectedKCore(g, {}, 3));                      // empty
}

TEST(IsConnectedKCoreTest, TwoCliquesWithoutJoiningEdgeAreNotConnected) {
  // Two disjoint K5s on 0-4 and 5-9, and a hub 10 adjacent to all of them
  // plus 200 leaves, so the hub's list dwarfs every member set.
  GraphBuilder b;
  b.SetNumVertices(211);
  for (VertexId base : {0u, 5u}) {
    for (VertexId u = base; u < base + 5; ++u) {
      for (VertexId v = u + 1; v < base + 5; ++v) b.AddEdge(u, v);
    }
  }
  for (VertexId v = 0; v < 10; ++v) b.AddEdge(10, v);
  for (VertexId v = 11; v < 211; ++v) b.AddEdge(10, v);
  const Graph g = b.Build();
  const VertexList cliques = Members({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_FALSE(IsConnectedKCore(g, cliques, 4));
  EXPECT_FALSE(IsConnectedKCore(g, cliques, 1));
  VertexList with_hub = cliques;
  with_hub.push_back(10);
  EXPECT_TRUE(IsConnectedKCore(g, with_hub, 5));  // clique + hub: degree 5
  EXPECT_FALSE(IsConnectedKCore(g, with_hub, 6));
  EXPECT_TRUE(IsConnectedKCore(g, Members({0, 1, 2, 3, 4}), 4));
  EXPECT_TRUE(IsConnectedKCore(g, Members({10}), 0));
  ExpectKCoreTestMatchesReference(g, cliques);
  ExpectKCoreTestMatchesReference(g, with_hub);
}

class KCoreOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

// Random subsets, BFS balls and the peeled k-cores inside those balls
// (true positives) of a hub-heavy Chung-Lu graph and of an ER graph.
TEST_P(KCoreOracleTest, MatchesDenseReference) {
  const std::uint64_t seed = GetParam();
  ChungLuOptions options;
  options.num_vertices = 600;
  options.target_average_degree = 12.0;
  options.gamma = 2.1;
  options.seed = seed;
  const Graph chung_lu = GenerateChungLu(options);
  ASSERT_GT(chung_lu.max_degree(), 120u);  // hubs: degree >> |C| <= 40
  const Graph erdos_renyi = GenerateErdosRenyi(200, 1200, seed);
  const auto all = [](VertexId) { return true; };
  Rng rng(seed * 7 + 1);
  for (const Graph* g : {&chung_lu, &erdos_renyi}) {
    SubsetPeeler peeler(*g);
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t size = 1 + rng.NextBounded(40);
      VertexList random_subset;
      while (random_subset.size() < size) {
        const VertexId v =
            static_cast<VertexId>(rng.NextBounded(g->num_vertices()));
        if (std::find(random_subset.begin(), random_subset.end(), v) ==
            random_subset.end()) {
          random_subset.push_back(v);
        }
      }
      ExpectKCoreTestMatchesReference(*g, random_subset);

      const VertexId seed_vertex = random_subset.front();
      VertexList ball =
          ReferenceNearestNeighbors(*g, seed_vertex, size, all);
      ExpectKCoreTestMatchesReference(*g, ball);
      std::sort(ball.begin(), ball.end());
      for (const VertexId k : {2u, 3u, 4u}) {
        const auto components = peeler.PeelAndSplit(ball, k);
        VertexList whole;
        for (const VertexList& component : components) {
          EXPECT_TRUE(IsConnectedKCore(*g, component, k));
          ExpectKCoreTestMatchesReference(*g, component);
          whole.insert(whole.end(), component.begin(), component.end());
        }
        ExpectKCoreTestMatchesReference(*g, whole);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KCoreOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5));

class NearestNeighborsOracleTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Identical sequences to the deque + hash-set reference for random
// `allowed` filters and every limit from 1 to n + 1.
TEST_P(NearestNeighborsOracleTest, MatchesReferenceBfs) {
  const std::uint64_t seed = GetParam();
  ChungLuOptions options;
  options.num_vertices = 300;
  options.target_average_degree = 6.0;
  options.gamma = 2.2;
  options.seed = seed;
  const Graph chung_lu = GenerateChungLu(options);
  const Graph erdos_renyi = GenerateErdosRenyi(250, 500, seed);
  Rng rng(seed ^ 0x5EED);
  for (const Graph* g : {&chung_lu, &erdos_renyi}) {
    const VertexId n = g->num_vertices();
    for (const double keep : {1.0, 0.8, 0.4}) {
      std::vector<std::uint8_t> allowed_flags(n, 0);
      for (VertexId v = 0; v < n; ++v) {
        allowed_flags[v] = rng.NextBernoulli(keep) ? 1 : 0;
      }
      const auto allowed = [&allowed_flags](VertexId v) {
        return allowed_flags[v] != 0;
      };
      for (int trial = 0; trial < 3; ++trial) {
        VertexId seed_vertex = static_cast<VertexId>(rng.NextBounded(n));
        allowed_flags[seed_vertex] = 1;
        for (std::size_t limit = 1; limit <= n + 1; ++limit) {
          ASSERT_EQ(CollectNearestNeighbors(*g, seed_vertex, limit, allowed),
                    ReferenceNearestNeighbors(*g, seed_vertex, limit, allowed))
              << "keep=" << keep << " seed=" << seed_vertex
              << " limit=" << limit;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NearestNeighborsOracleTest,
                         ::testing::Values(1, 2, 3));

TEST(CollectNearestNeighborsTest, LargeLimitCollectsWholeComponent) {
  // Thousands of collected vertices: the visited table grows many times.
  ChungLuOptions options;
  options.num_vertices = 5000;
  options.target_average_degree = 8.0;
  options.seed = 9;
  const Graph g = GenerateChungLu(options);
  const auto all = [](VertexId) { return true; };
  const VertexId seed_vertex = 0;
  const VertexList got =
      CollectNearestNeighbors(g, seed_vertex, g.num_vertices() + 1, all);
  EXPECT_EQ(got, ReferenceNearestNeighbors(g, seed_vertex,
                                           g.num_vertices() + 1, all));
  EXPECT_GT(got.size(), 4000u);
}

TEST(CollectNearestNeighborsTest, LimitRespectedAndSeedFirst) {
  const Graph g = TwoTrianglesAndK4();
  const auto all = [](VertexId) { return true; };
  const VertexList got = CollectNearestNeighbors(g, 6, 3, all);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 6u);
  // Neighbours visited in ascending adjacency order.
  EXPECT_EQ(got[1], 7u);
  EXPECT_EQ(got[2], 8u);
}

TEST(CollectNearestNeighborsTest, ExpandsToTwoHops) {
  const Graph g = PathGraph(6);  // 0-1-2-3-4-5
  const auto all = [](VertexId) { return true; };
  const VertexList got = CollectNearestNeighbors(g, 0, 4, all);
  EXPECT_EQ(got, Members({0, 1, 2, 3}));
}

TEST(CollectNearestNeighborsTest, BfsOrderIsDistanceOrder) {
  const Graph g = TwoTrianglesAndK4();
  const auto all = [](VertexId) { return true; };
  // From vertex 0: 1-hop = {1, 2}; 2-hop adds 3 (via 2); 3-hop adds 4, 5.
  const VertexList got = CollectNearestNeighbors(g, 0, 6, all);
  EXPECT_EQ(got, Members({0, 1, 2, 3, 4, 5}));
}

TEST(CollectNearestNeighborsTest, FilterBlocksExpansion) {
  const Graph g = PathGraph(6);
  const auto not_two = [](VertexId v) { return v != 2; };
  // Vertex 2 blocked: BFS from 0 cannot pass it.
  const VertexList got = CollectNearestNeighbors(g, 0, 6, not_two);
  EXPECT_EQ(got, Members({0, 1}));
}

TEST(CollectNearestNeighborsTest, ComponentBoundary) {
  const Graph g = TwoTrianglesAndK4();
  const auto all = [](VertexId) { return true; };
  const VertexList got = CollectNearestNeighbors(g, 6, 10, all);
  EXPECT_EQ(got.size(), 4u);  // K4 only
}

TEST(CollectNearestNeighborsTest, ZeroLimitEmpty) {
  const Graph g = PathGraph(3);
  const auto all = [](VertexId) { return true; };
  EXPECT_TRUE(CollectNearestNeighbors(g, 0, 0, all).empty());
}

}  // namespace
}  // namespace ticl
