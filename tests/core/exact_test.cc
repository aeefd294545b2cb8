#include "core/exact_search.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/improved_search.h"
#include "core/minmax_search.h"
#include "core/verification.h"
#include "testing/builders.h"

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

TEST(ExactSearchTest, SizeConstrainedSumTopThreeAtS3) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result =
      ExactSearch(g, MakeQuery(2, 3, 3, AggregationSpec::Sum()));
  ASSERT_EQ(result.communities.size(), 3u);
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 105.0);  // {7,8,9}
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 104.0);  // {6,8,9}
  EXPECT_DOUBLE_EQ(result.communities[2].influence, 103.0);  // {6,7,9}
  EXPECT_EQ(result.communities[0].members, Members({7, 8, 9}));
}

TEST(ExactSearchTest, SizeConstrainedSumTopThreeAtS4) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result =
      ExactSearch(g, MakeQuery(2, 3, 4, AggregationSpec::Sum()));
  ASSERT_EQ(result.communities.size(), 3u);
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 106.0);  // K4
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 105.0);
  EXPECT_DOUBLE_EQ(result.communities[2].influence, 104.0);
}

TEST(ExactSearchTest, UnconstrainedAvgTopThree) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result =
      ExactSearch(g, MakeQuery(2, 3, 0, AggregationSpec::Avg()));
  ASSERT_EQ(result.communities.size(), 3u);
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 35.0);
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 104.0 / 3);
  EXPECT_DOUBLE_EQ(result.communities[2].influence, 103.0 / 3);
  EXPECT_EQ(result.communities[0].members, Members({7, 8, 9}));
}

TEST(ExactSearchTest, EnumerationDominatesDeletionFamily) {
  // Exact enumeration must match ImprovedSearch for monotone sum: the
  // unconstrained optimum over ALL connected k-cores is attained on the
  // deletion family.
  const Graph g = TwoTrianglesAndK4();
  const Query query = MakeQuery(2, 5, 0, AggregationSpec::Sum());
  const SearchResult exact = ExactSearch(g, query);
  const SearchResult improved = ImprovedSearch(g, query);
  ASSERT_EQ(exact.communities.size(), improved.communities.size());
  for (std::size_t i = 0; i < exact.communities.size(); ++i) {
    EXPECT_DOUBLE_EQ(exact.communities[i].influence,
                     improved.communities[i].influence)
        << i;
  }
}

TEST(ExactSearchTest, MaximalityFilterMatchesMinPeelFamily) {
  // With Definition 3(3) enforced, the surviving min-communities are
  // exactly the peel snapshots.
  const Graph g = TwoTrianglesAndK4();
  Query query = MakeQuery(2, 4, 0, AggregationSpec::Min());
  ExactOptions options;
  options.enforce_maximality = true;
  const SearchResult exact = ExactSearch(g, query, options);
  const SearchResult peel = MinPeelSearch(g, query);
  ASSERT_EQ(exact.communities.size(), peel.communities.size());
  for (std::size_t i = 0; i < exact.communities.size(); ++i) {
    EXPECT_DOUBLE_EQ(exact.communities[i].influence,
                     peel.communities[i].influence)
        << i;
    EXPECT_EQ(exact.communities[i].members, peel.communities[i].members)
        << i;
  }
}

TEST(ExactSearchTest, WithoutMaximalityFilterMinHasMoreCandidates) {
  const Graph g = TwoTrianglesAndK4();
  Query query = MakeQuery(2, 50, 0, AggregationSpec::Min());
  const SearchResult unfiltered = ExactSearch(g, query);
  ExactOptions options;
  options.enforce_maximality = true;
  const SearchResult filtered = ExactSearch(g, query, options);
  EXPECT_GT(unfiltered.communities.size(), filtered.communities.size());
}

TEST(ExactSearchTest, TonicGreedyDisjoint) {
  const Graph g = TwoTrianglesAndK4();
  Query query = MakeQuery(2, 3, 3, AggregationSpec::Sum());
  query.non_overlapping = true;
  const SearchResult result = ExactSearch(g, query);
  // Greedy: {7,8,9}=105 first; K4 minus those is just {6} (no 2-core);
  // second pick comes from the other component: {0,1,2}=60, then {3,4,5}.
  ASSERT_EQ(result.communities.size(), 3u);
  EXPECT_EQ(result.communities[0].members, Members({7, 8, 9}));
  EXPECT_EQ(result.communities[1].members, Members({0, 1, 2}));
  EXPECT_EQ(result.communities[2].members, Members({3, 4, 5}));
  EXPECT_EQ(ValidateResult(g, query, result), "");
}

TEST(ExactSearchTest, WeightDensitySupported) {
  const Graph g = TwoTrianglesAndK4();
  // weight-density with beta=1: K4 -> 106-4=102; {7,8,9} -> 105-3=102;
  // tie broken deterministically by hash, both must appear in top-2.
  const SearchResult result =
      ExactSearch(g, MakeQuery(2, 2, 0, AggregationSpec::WeightDensity(1.0)));
  ASSERT_EQ(result.communities.size(), 2u);
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 102.0);
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 102.0);
}

TEST(ExactSearchTest, BalancedDensitySupported) {
  const Graph g = TwoTrianglesAndK4();
  // Total weight 184; only communities with w(H) > 92 have finite value:
  // {6,7,9}=103/22, {6,8,9}=104/24, {7,8,9}=105/26, K4=106/28 — note the
  // *smallest* qualifying sum wins (the denominator shrinks faster).
  const SearchResult result = ExactSearch(
      g, MakeQuery(2, 4, 0, AggregationSpec::BalancedDensity()));
  ASSERT_EQ(result.communities.size(), 4u);
  EXPECT_EQ(result.communities[0].members, Members({6, 7, 9}));
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 103.0 / 22.0);
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 104.0 / 24.0);
  EXPECT_DOUBLE_EQ(result.communities[2].influence, 105.0 / 26.0);
  EXPECT_DOUBLE_EQ(result.communities[3].influence, 106.0 / 28.0);
}

TEST(ExactSearchTest, UndefinedBalancedDensityCandidatesDropped) {
  const Graph g = TwoTrianglesAndK4();
  // r larger than the number of finite-valued communities: the -inf ones
  // (w(H) <= W/2) must not be returned.
  const SearchResult result = ExactSearch(
      g, MakeQuery(2, 20, 0, AggregationSpec::BalancedDensity()));
  EXPECT_EQ(result.communities.size(), 4u);
  for (const Community& c : result.communities) {
    EXPECT_TRUE(std::isfinite(c.influence));
  }
}

TEST(ExactSearchTest, NoQualifyingSubsetsEmpty) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_TRUE(
      ExactSearch(g, MakeQuery(4, 2, 0, AggregationSpec::Sum()))
          .communities.empty());
}

TEST(ExactSearchDeathTest, GuardsHugeEnumeration) {
  const Graph g = testing::CompleteGraph(80);
  Graph weighted = g;
  weighted.SetWeights(std::vector<Weight>(80, 1.0));
  ExactOptions options;
  options.max_subsets = 1000;
  // The fit check callers run first sees the same verdict as the guard.
  EXPECT_GT(ExactSubsetCount(weighted,
                             MakeQuery(2, 1, 0, AggregationSpec::Sum()),
                             options),
            options.max_subsets);
  EXPECT_DEATH(
      ExactSearch(weighted, MakeQuery(2, 1, 0, AggregationSpec::Sum()),
                  options),
      "too large");
}

TEST(ExactSearchTest, SubsetCountCoversTheMaximalKCore) {
  const Graph g = TwoTrianglesAndK4();
  // The 3-core is K4: C(4,1) + C(4,2) + C(4,3) + C(4,4) subsets.
  EXPECT_EQ(ExactSubsetCount(g, MakeQuery(3, 1, 0, AggregationSpec::Sum())),
            15u);
  // The 2-core is all 10 vertices; s = 3 caps the subset size:
  // C(10,1) + C(10,2) + C(10,3).
  EXPECT_EQ(ExactSubsetCount(g, MakeQuery(2, 1, 3, AggregationSpec::Sum())),
            175u);
}

}  // namespace
}  // namespace ticl
