#include "algo/kcore_peeler.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "algo/connectivity.h"
#include "algo/core_decomposition.h"
#include "gen/erdos_renyi.h"
#include "testing/builders.h"
#include "util/rng.h"

namespace ticl {

/// Moves a peeler's stamp counter so tests can drive it across the wrap.
class SubsetPeelerTestPeer {
 public:
  static void SetEpoch(SubsetPeeler* peeler, std::uint32_t epoch) {
    peeler->epoch_ = epoch;
  }
};

namespace {

using testing::Members;
using testing::TwoTrianglesAndK4;

/// Reference: k-core of the induced subgraph via full decomposition.
VertexList ReferencePeel(const Graph& g, const VertexList& members,
                         VertexId k) {
  const InducedSubgraph sub = ExtractInducedSubgraph(g, members);
  const auto decomp = CoreDecomposition(sub.graph);
  VertexList out;
  for (VertexId lv = 0; lv < sub.graph.num_vertices(); ++lv) {
    if (decomp.core[lv] >= k) out.push_back(sub.to_original[lv]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SubsetPeelerTest, WholeGraphPeel) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  VertexList all;
  for (VertexId v = 0; v < 10; ++v) all.push_back(v);
  EXPECT_EQ(peeler.Peel(all, 2).size(), 10u);
  EXPECT_EQ(peeler.Peel(all, 3), Members({6, 7, 8, 9}));
  EXPECT_TRUE(peeler.Peel(all, 4).empty());
}

TEST(SubsetPeelerTest, CascadeThroughBridge) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  // Remove vertex 0 from {0..5}: triangle A unravels, B survives.
  const auto components =
      peeler.RemoveAndSplit(Members({0, 1, 2, 3, 4, 5}), 0, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({3, 4, 5}));
  EXPECT_EQ(peeler.last_cascade_size(), 2u);  // vertices 1 and 2
}

TEST(SubsetPeelerTest, RemoveBridgeEndpointSplits) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  // Remove 3: triangle B loses a member and unravels; A survives.
  const auto components =
      peeler.RemoveAndSplit(Members({0, 1, 2, 3, 4, 5}), 3, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({0, 1, 2}));
}

TEST(SubsetPeelerTest, RemoveFromK4LeavesTriangle) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  const auto components =
      peeler.RemoveAndSplit(Members({6, 7, 8, 9}), 9, 2);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], Members({6, 7, 8}));
  EXPECT_EQ(peeler.last_cascade_size(), 0u);
}

TEST(SubsetPeelerTest, PeelAndSplitSeparatesComponents) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  VertexList all;
  for (VertexId v = 0; v < 10; ++v) all.push_back(v);
  const auto components = peeler.PeelAndSplit(all, 2);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].size(), 6u);
  EXPECT_EQ(components[1].size(), 4u);
}

TEST(SubsetPeelerTest, EmptySubset) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.Peel({}, 2).empty());
  EXPECT_TRUE(peeler.PeelAndSplit({}, 2).empty());
}

TEST(SubsetPeelerTest, SubsetBelowKAllPeeled) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  EXPECT_TRUE(peeler.Peel(Members({0, 1}), 2).empty());
}

TEST(SubsetPeelerTest, ReusableAcrossEpochs) {
  const Graph g = TwoTrianglesAndK4();
  SubsetPeeler peeler(g);
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(peeler.Peel(Members({6, 7, 8, 9}), 3),
              Members({6, 7, 8, 9}));
    EXPECT_EQ(peeler.Peel(Members({0, 1, 2}), 2), Members({0, 1, 2}));
  }
}

TEST(SubsetPeelerTest, StampCounterWrapMatchesFreshPeeler) {
  // Early epochs leave stamps 1, 2, ... behind; after the counter is moved
  // to the top of its range, the wrap must not let those stale stamps
  // count as members of a later working set.
  const Graph g = GenerateErdosRenyi(80, 260, 5);
  SubsetPeeler peeler(g);
  Rng rng(17);
  std::vector<VertexList> subsets;
  for (int i = 0; i < 12; ++i) {
    VertexList members;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.NextBernoulli(0.6)) members.push_back(v);
    }
    subsets.push_back(std::move(members));
  }
  for (int i = 0; i < 4; ++i) peeler.PeelAndSplit(subsets[i], 2);
  SubsetPeelerTestPeer::SetEpoch(&peeler,
                                 std::numeric_limits<std::uint32_t>::max() - 2);
  for (const VertexList& members : subsets) {
    SubsetPeeler fresh(g);
    for (const VertexId k : {2u, 3u}) {
      EXPECT_EQ(peeler.PeelAndSplit(members, k),
                fresh.PeelAndSplit(members, k));
      EXPECT_EQ(peeler.Peel(members, k), ReferencePeel(g, members, k));
    }
  }
}

class PeelerPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeelerPropertyTest, PeelMatchesReferenceOnRandomSubsets) {
  const std::uint64_t seed = GetParam();
  const Graph g = GenerateErdosRenyi(120, 400, seed);
  SubsetPeeler peeler(g);
  Rng rng(seed ^ 0xABCD);
  for (int trial = 0; trial < 20; ++trial) {
    VertexList members;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.NextBernoulli(0.5)) members.push_back(v);
    }
    for (const VertexId k : {1u, 2u, 3u, 4u}) {
      EXPECT_EQ(peeler.Peel(members, k), ReferencePeel(g, members, k))
          << "seed=" << seed << " trial=" << trial << " k=" << k;
    }
  }
}

TEST_P(PeelerPropertyTest, RemoveAndSplitMatchesPeelOfReducedSet) {
  const std::uint64_t seed = GetParam();
  const Graph g = GenerateErdosRenyi(100, 350, seed);
  SubsetPeeler peeler(g);
  const VertexList core = MaximalKCore(g, 3);
  if (core.empty()) GTEST_SKIP() << "no 3-core at this seed";
  Rng rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    const VertexId removed = core[rng.NextBounded(core.size())];
    VertexList reduced;
    for (const VertexId v : core) {
      if (v != removed) reduced.push_back(v);
    }
    // Survivor union of RemoveAndSplit == Peel of the reduced set, and the
    // split must match ComponentsOfSubset of those survivors.
    const auto components = peeler.RemoveAndSplit(core, removed, 3);
    VertexList survivors;
    for (const auto& comp : components) {
      survivors.insert(survivors.end(), comp.begin(), comp.end());
    }
    std::sort(survivors.begin(), survivors.end());
    EXPECT_EQ(survivors, ReferencePeel(g, reduced, 3));
    EXPECT_EQ(components.size(),
              ComponentsOfSubset(g, survivors).size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeelerPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace ticl
