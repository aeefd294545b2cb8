#include "core/local_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "algo/weights.h"
#include "core/exact_search.h"
#include "core/verification.h"
#include "gen/chung_lu.h"
#include "gen/planted_communities.h"
#include "graph/graph_builder.h"
#include "testing/builders.h"
#include "util/fnv1a.h"

namespace ticl {
namespace {

using testing::Members;
using testing::TwoTrianglesAndK4;

Query MakeQuery(VertexId k, std::uint32_t r, VertexId s,
                AggregationSpec spec) {
  Query q;
  q.k = k;
  q.r = r;
  q.size_limit = s;
  q.aggregation = spec;
  return q;
}

TEST(LocalSearchTest, FixtureSumSizeThree) {
  // BFS neighbourhoods truncate at s = 3 in id order, so the best
  // reachable candidate is {9, 7, 6} = 103 (seed 9's neighbourhood
  // collects 6 and 7 before 8). The exact optimum is 105 — the heuristic
  // gap is expected and demonstrates Remark 2.
  const Graph g = TwoTrianglesAndK4();
  const Query query = MakeQuery(2, 1, 3, AggregationSpec::Sum());
  for (const bool greedy : {true, false}) {
    LocalSearchOptions options;
    options.greedy = greedy;
    const SearchResult result = LocalSearch(g, query, options);
    ASSERT_EQ(result.communities.size(), 1u) << "greedy=" << greedy;
    EXPECT_EQ(result.communities[0].members, Members({6, 7, 9}));
    EXPECT_DOUBLE_EQ(result.communities[0].influence, 103.0);
    EXPECT_EQ(ValidateResult(g, query, result), "");
  }
}

TEST(LocalSearchTest, FixtureSumSizeFourFindsK4) {
  const Graph g = TwoTrianglesAndK4();
  const Query query = MakeQuery(2, 2, 4, AggregationSpec::Sum());
  const SearchResult result = LocalSearch(g, query);
  ASSERT_GE(result.communities.size(), 1u);
  EXPECT_EQ(result.communities[0].members, Members({6, 7, 8, 9}));
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 106.0);
}

TEST(LocalSearchTest, HeuristicNeverBeatsExact) {
  const Graph g = TwoTrianglesAndK4();
  for (const VertexId s : {3u, 4u, 5u}) {
    for (const auto spec :
         {AggregationSpec::Sum(), AggregationSpec::Avg()}) {
      const Query query = MakeQuery(2, 1, s, spec);
      const SearchResult heuristic = LocalSearch(g, query);
      const SearchResult exact = ExactSearch(g, query);
      if (heuristic.communities.empty()) continue;
      ASSERT_FALSE(exact.communities.empty());
      EXPECT_LE(heuristic.communities[0].influence,
                exact.communities[0].influence + 1e-12);
    }
  }
}

TEST(LocalSearchTest, AvgStrategyFindsSmallRichCommunity) {
  const Graph g = TwoTrianglesAndK4();
  const Query query = MakeQuery(2, 1, 4, AggregationSpec::Avg());
  const SearchResult result = LocalSearch(g, query);
  ASSERT_EQ(result.communities.size(), 1u);
  // Greedy from seed 9 orders {9, 8, 7, 6}; prefix {9, 8, 7} is a triangle
  // with avg 35, the exact optimum.
  EXPECT_EQ(result.communities[0].members, Members({7, 8, 9}));
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 35.0);
}

TEST(LocalSearchTest, MinViaAvgStrategyPath) {
  // Node-dominated min is routed through the prefix strategy; results must
  // be valid size-constrained communities.
  const Graph g = TwoTrianglesAndK4();
  const Query query = MakeQuery(2, 2, 3, AggregationSpec::Min());
  const SearchResult result = LocalSearch(g, query);
  EXPECT_EQ(ValidateResult(g, query, result), "");
  ASSERT_GE(result.communities.size(), 1u);
  // Best s=3 community under min: {0,1,2} with min 10.
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 10.0);
}

TEST(LocalSearchTest, ResultsAreValidOnPlantedGraph) {
  PlantedCommunitiesOptions planted_options;
  planted_options.background_vertices = 400;
  planted_options.num_communities = 5;
  planted_options.community_size = 8;
  planted_options.seed = 3;
  const auto planted = GeneratePlantedCommunities(planted_options);
  for (const auto spec : {AggregationSpec::Sum(), AggregationSpec::Avg()}) {
    for (const bool greedy : {true, false}) {
      const Query query = MakeQuery(3, 5, 10, spec);
      LocalSearchOptions options;
      options.greedy = greedy;
      const SearchResult result = LocalSearch(planted.graph, query, options);
      EXPECT_EQ(ValidateResult(planted.graph, query, result), "");
      EXPECT_GE(result.communities.size(), 1u);
    }
  }
}

TEST(LocalSearchTest, GreedyRecoversPlantedBlocks) {
  PlantedCommunitiesOptions planted_options;
  planted_options.background_vertices = 400;
  planted_options.num_communities = 5;
  planted_options.community_size = 8;
  planted_options.weight_boost = 100.0;
  planted_options.seed = 5;
  const auto planted = GeneratePlantedCommunities(planted_options);
  const Query query = MakeQuery(7, 5, 8, AggregationSpec::Sum());
  const SearchResult result = LocalSearch(planted.graph, query);
  // k = 7 with s = 8 admits exactly the planted 8-cliques.
  ASSERT_EQ(result.communities.size(), 5u);
  for (const Community& c : result.communities) {
    EXPECT_TRUE(std::find(planted.planted.begin(), planted.planted.end(),
                          c.members) != planted.planted.end());
  }
}

TEST(LocalSearchTest, TonicResultsDisjoint) {
  const Graph g = TwoTrianglesAndK4();
  Query query = MakeQuery(2, 3, 3, AggregationSpec::Sum());
  query.non_overlapping = true;
  const SearchResult result = LocalSearch(g, query);
  EXPECT_EQ(ValidateResult(g, query, result), "");
  EXPECT_GE(result.communities.size(), 2u);
}

TEST(LocalSearchTest, TonicConsumesVertices) {
  const Graph g = TwoTrianglesAndK4();
  Query tonic = MakeQuery(2, 5, 3, AggregationSpec::Sum());
  tonic.non_overlapping = true;
  Query overlap = tonic;
  overlap.non_overlapping = false;
  const SearchResult tonic_result = LocalSearch(g, tonic);
  const SearchResult overlap_result = LocalSearch(g, overlap);
  // Overlapping mode may reuse K4's vertices across candidates; TONIC
  // cannot, so it returns at most one community per disjoint region.
  EXPECT_LE(tonic_result.communities.size(),
            overlap_result.communities.size());
}

TEST(LocalSearchTest, UnconstrainedUsesNeighborhoodCap) {
  const Graph g = TwoTrianglesAndK4();
  Query query = MakeQuery(2, 2, 0, AggregationSpec::Avg());
  LocalSearchOptions options;
  options.neighborhood_cap = 4;
  const SearchResult result = LocalSearch(g, query, options);
  EXPECT_EQ(ValidateResult(g, query, result), "");
  ASSERT_GE(result.communities.size(), 1u);
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 35.0);
}

TEST(LocalSearchTest, SeedOrderAblationStillValid) {
  const Graph g = TwoTrianglesAndK4();
  const Query query = MakeQuery(2, 3, 4, AggregationSpec::Sum());
  LocalSearchOptions options;
  options.seed_order = SeedOrder::kDescendingWeight;
  const SearchResult result = LocalSearch(g, query, options);
  EXPECT_EQ(ValidateResult(g, query, result), "");
  ASSERT_GE(result.communities.size(), 1u);
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 106.0);
}

TEST(LocalSearchTest, StatsPopulated) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result =
      LocalSearch(g, MakeQuery(2, 3, 4, AggregationSpec::Sum()));
  EXPECT_GT(result.stats.seeds_processed, 0u);
  EXPECT_GT(result.stats.candidates_generated, 0u);
}

TEST(LocalSearchTest, NoKCoreYieldsEmpty) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result =
      LocalSearch(g, MakeQuery(4, 2, 5, AggregationSpec::Sum()));
  EXPECT_TRUE(result.communities.empty());
}

/// Folds one answer into `h`: every community's members and influence
/// bits, then the SearchStats counters (elapsed time aside).
void FoldResult(const SearchResult& result, Fnv1a* h) {
  const auto fold_u64 = [h](std::uint64_t x) { h->Update(&x, sizeof x); };
  fold_u64(result.communities.size());
  for (const Community& c : result.communities) {
    fold_u64(c.members.size());
    h->Update(c.members.data(), c.members.size() * sizeof(VertexId));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.influence, sizeof bits);
    fold_u64(bits);
  }
  fold_u64(result.stats.candidates_generated);
  fold_u64(result.stats.candidates_pruned);
  fold_u64(result.stats.peel_operations);
  fold_u64(result.stats.duplicates_skipped);
  fold_u64(result.stats.seeds_processed);
}

// Golden answers on a hub-heavy power-law graph (hub degrees far above any
// neighbourhood size). Each row folds k x r x s answers of one aggregation,
// TIC/TONIC and greedy/random configuration, counters included, so a
// faster k-core test or neighbourhood BFS that alters any answer or
// counter shows here. Balanced density is left out: it needs
// w(H) above half of w(V), which no neighbourhood here reaches, so every
// answer would be empty without a single k-core test. The skewed grid
// below covers it.
TEST(LocalSearchGoldenTest, HubHeavyGridMatchesPinnedHashes) {
  ChungLuOptions options;
  options.num_vertices = 1500;
  options.target_average_degree = 16.0;
  options.gamma = 2.1;
  options.seed = 11;
  Graph g = GenerateChungLu(options);
  AssignWeights(&g, WeightScheme::kPageRank);
  ASSERT_GT(g.max_degree(), 150u);  // hubs dwarf every s below

  struct Row {
    const char* name;
    AggregationSpec spec;
    bool tonic;
    bool greedy;
    std::uint64_t expected;
  };
  const Row rows[] = {
      {"min", AggregationSpec::Min(), false, true,
       0x5bab39bc9469cd24ULL},
      {"min", AggregationSpec::Min(), false, false,
       0xeb0cbd54732d5baULL},
      {"min", AggregationSpec::Min(), true, true,
       0x4099b3dbff392d9eULL},
      {"min", AggregationSpec::Min(), true, false,
       0x238c1826f9d17e0ULL},
      {"max", AggregationSpec::Max(), false, true,
       0xf0ee53f235d41493ULL},
      {"max", AggregationSpec::Max(), false, false,
       0x2c08d436bc7d9312ULL},
      {"max", AggregationSpec::Max(), true, true,
       0x6530c1716f503045ULL},
      {"max", AggregationSpec::Max(), true, false,
       0xf8b75e5978914a0aULL},
      {"sum", AggregationSpec::Sum(), false, true,
       0x94c6a936ab3c483dULL},
      {"sum", AggregationSpec::Sum(), false, false,
       0x94c6a936ab3c483dULL},
      {"sum", AggregationSpec::Sum(), true, true,
       0x5359fe7ec115cd6aULL},
      {"sum", AggregationSpec::Sum(), true, false,
       0x2af5f31e86e678e2ULL},
      {"sum-surplus", AggregationSpec::SumSurplus(0.7), false, true,
       0xa68a62e3b7ca71d2ULL},
      {"sum-surplus", AggregationSpec::SumSurplus(0.7), false, false,
       0xa68a62e3b7ca71d2ULL},
      {"sum-surplus", AggregationSpec::SumSurplus(0.7), true, true,
       0xf913865157b0205bULL},
      {"sum-surplus", AggregationSpec::SumSurplus(0.7), true, false,
       0x60222eed12cb27cdULL},
      {"avg", AggregationSpec::Avg(), false, true,
       0xa495c12994bac5c2ULL},
      {"avg", AggregationSpec::Avg(), false, false,
       0x6b3b29575d176c8fULL},
      {"avg", AggregationSpec::Avg(), true, true,
       0xa77dedbc87d161d4ULL},
      {"avg", AggregationSpec::Avg(), true, false,
       0xd2d5f3898f4416f5ULL},
      {"weight-density", AggregationSpec::WeightDensity(1.5), false, true,
       0xb945af02ab808d4dULL},
      {"weight-density", AggregationSpec::WeightDensity(1.5), false, false,
       0x4cda0da0a8004f12ULL},
      {"weight-density", AggregationSpec::WeightDensity(1.5), true, true,
       0x6e64dd7c67aa3283ULL},
      {"weight-density", AggregationSpec::WeightDensity(1.5), true, false,
       0x4d69e5728219d48aULL},
  };
  for (const Row& row : rows) {
    Fnv1a h;
    for (const VertexId k : {3u, 6u}) {
      for (const std::uint32_t r : {1u, 5u}) {
        for (const VertexId extra : {0u, 4u, 12u}) {
          Query query = MakeQuery(k, r, extra == 0 ? 0 : k + extra, row.spec);
          query.non_overlapping = row.tonic;
          LocalSearchOptions ls_options;
          ls_options.greedy = row.greedy;
          FoldResult(LocalSearch(g, query, ls_options), &h);
        }
      }
    }
    EXPECT_EQ(h.Digest(), row.expected)
        << row.name << (row.tonic ? " TONIC" : " TIC")
        << (row.greedy ? " greedy" : " random") << ": got 0x" << std::hex
        << h.Digest() << "ULL";
  }
}

// The hub-heavy graph above with its 16 highest-degree vertices made
// heavy: the other vertices weigh 9 hubs' worth, so 10 hubs hold less than
// half of w(V) and 15 hold more. Balanced density is finite only on
// candidates above w(V)/2.
Graph HubHeavyWithHeavyHubs() {
  ChungLuOptions options;
  options.num_vertices = 1500;
  options.target_average_degree = 16.0;
  options.gamma = 2.1;
  options.seed = 11;
  Graph g = GenerateChungLu(options);
  AssignWeights(&g, WeightScheme::kPageRank);
  std::vector<VertexId> by_degree(g.num_vertices());
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::sort(by_degree.begin(), by_degree.end(),
            [&g](VertexId a, VertexId b) {
              if (g.degree(a) != g.degree(b)) {
                return g.degree(a) > g.degree(b);
              }
              return a < b;
            });
  std::vector<Weight> weights(g.weights().begin(), g.weights().end());
  constexpr std::size_t kHubs = 16;
  double rest = 0.0;
  for (std::size_t i = kHubs; i < by_degree.size(); ++i) {
    rest += weights[by_degree[i]];
  }
  for (std::size_t i = 0; i < kHubs; ++i) {
    weights[by_degree[i]] = rest / 9.0 * (1.0 + 0.01 * static_cast<double>(i));
  }
  g.SetWeights(std::move(weights));
  return g;
}

// Golden balanced-density answers on the weight-skewed graph, same grid and
// hash as above. At s = k + 4 no s-vertex candidate can pass w(V)/2, so
// every seed is pruned without a k-core test; unconstrained and at
// s = k + 12 the neighbourhoods that gather enough hubs yield communities
// and the rest are pruned.
TEST(LocalSearchGoldenTest, BalancedDensitySkewedGridMatchesPinnedHashes) {
  const Graph g = HubHeavyWithHeavyHubs();
  struct Row {
    bool tonic;
    bool greedy;
    std::uint64_t expected;
  };
  const Row rows[] = {
      {false, true, 0x2b072b1fe8de2f0dULL},
      {false, false, 0xfcccfdca66c63d67ULL},
      {true, true, 0xe183cbe2188de695ULL},
      {true, false, 0xe626265535036dfdULL},
  };
  for (const Row& row : rows) {
    Fnv1a h;
    for (const VertexId k : {3u, 6u}) {
      for (const std::uint32_t r : {1u, 5u}) {
        for (const VertexId extra : {0u, 4u, 12u}) {
          Query query = MakeQuery(k, r, extra == 0 ? 0 : k + extra,
                                  AggregationSpec::BalancedDensity());
          query.non_overlapping = row.tonic;
          LocalSearchOptions ls_options;
          ls_options.greedy = row.greedy;
          FoldResult(LocalSearch(g, query, ls_options), &h);
        }
      }
    }
    EXPECT_EQ(h.Digest(), row.expected)
        << (row.tonic ? "TONIC" : "TIC")
        << (row.greedy ? " greedy" : " random") << ": got 0x" << std::hex
        << h.Digest() << "ULL";
  }
}

// K6 {0..5} with weights {2, 2, 2, 2, 1, 1} beside six isolated unit
// vertices: w(V) = 16, and the four heaviest 3-core vertices weigh exactly
// w(V)/2, so every s = 4 candidate has a zero denominator.
Graph K6BesideIsolatedVertices(Weight heaviest) {
  GraphBuilder b;
  b.SetNumVertices(12);
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  }
  Graph g = b.Build();
  g.SetWeights({heaviest, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1});
  return g;
}

TEST(LocalSearchTest, BalancedDensityAtHalfOfTotalWeightIsEmpty) {
  const Query base = MakeQuery(3, 2, 4, AggregationSpec::BalancedDensity());
  for (const bool tonic : {false, true}) {
    for (const bool greedy : {true, false}) {
      Query query = base;
      query.non_overlapping = tonic;
      LocalSearchOptions options;
      options.greedy = greedy;
      const std::string config = std::string(tonic ? "TONIC" : "TIC") +
                                 (greedy ? " greedy" : " random");

      const SearchResult at_half =
          LocalSearch(K6BesideIsolatedVertices(2.0), query, options);
      EXPECT_TRUE(at_half.communities.empty()) << config;
      EXPECT_EQ(at_half.stats.seeds_processed, 6u) << config;
      EXPECT_EQ(at_half.stats.candidates_pruned, 6u) << config;
      EXPECT_EQ(at_half.stats.peel_operations, 0u) << config;

      // One vertex 2^-20 heavier lifts {0, 1, 2, 3} just above w(V)/2.
      const Graph heavier = K6BesideIsolatedVertices(2.0 + 0x1p-20);
      const SearchResult above = LocalSearch(heavier, query, options);
      ASSERT_FALSE(above.communities.empty()) << config;
      EXPECT_EQ(above.communities[0].members, Members({0, 1, 2, 3}))
          << config;
      EXPECT_EQ(ValidateResult(heavier, query, above), "") << config;
    }
  }
}

TEST(LocalSearchDeathTest, RejectsInvalidQuery) {
  const Graph g = TwoTrianglesAndK4();
  Query query = MakeQuery(3, 1, 3, AggregationSpec::Sum());  // s < k + 1
  EXPECT_DEATH(LocalSearch(g, query), "invalid query");
}

}  // namespace
}  // namespace ticl
