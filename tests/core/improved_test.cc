#include "core/improved_search.h"

#include <gtest/gtest.h>

#include "algo/weights.h"
#include "core/naive_search.h"
#include "core/verification.h"
#include "gen/chung_lu.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::Members;
using testing::TwoTrianglesAndK4;

Query SumQuery(VertexId k, std::uint32_t r) {
  Query q;
  q.k = k;
  q.r = r;
  q.aggregation = AggregationSpec::Sum();
  return q;
}

TEST(ImprovedSearchTest, FixtureTopFiveValues) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult result = ImprovedSearch(g, SumQuery(2, 5));
  ASSERT_EQ(result.communities.size(), 5u);
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 106.0);
  EXPECT_DOUBLE_EQ(result.communities[1].influence, 105.0);
  EXPECT_DOUBLE_EQ(result.communities[2].influence, 104.0);
  EXPECT_DOUBLE_EQ(result.communities[3].influence, 103.0);
  EXPECT_DOUBLE_EQ(result.communities[4].influence, 78.0);
  EXPECT_EQ(result.communities[0].members, Members({6, 7, 8, 9}));
}

TEST(ImprovedSearchTest, MatchesNaiveOnFixtureEveryR) {
  const Graph g = TwoTrianglesAndK4();
  for (std::uint32_t r = 1; r <= 8; ++r) {
    const SearchResult improved = ImprovedSearch(g, SumQuery(2, r));
    const SearchResult naive = NaiveSearch(g, SumQuery(2, r));
    ASSERT_EQ(improved.communities.size(), naive.communities.size())
        << "r=" << r;
    for (std::size_t i = 0; i < improved.communities.size(); ++i) {
      EXPECT_DOUBLE_EQ(improved.communities[i].influence,
                       naive.communities[i].influence)
          << "r=" << r << " i=" << i;
      EXPECT_EQ(improved.communities[i].members,
                naive.communities[i].members);
    }
  }
}

TEST(ImprovedSearchTest, ExhaustsFamilyWhenRLarge) {
  const Graph g = TwoTrianglesAndK4();
  // The full deletion family at k=2 has 8 communities (see builders.h).
  const SearchResult result = ImprovedSearch(g, SumQuery(2, 50));
  EXPECT_EQ(result.communities.size(), 8u);
  EXPECT_EQ(ValidateResult(g, SumQuery(2, 50), result), "");
}

TEST(ImprovedSearchTest, PruningDoesNotChangeResults) {
  const Graph g = TwoTrianglesAndK4();
  ImprovedOptions no_pruning;
  no_pruning.enable_bound_pruning = false;
  const SearchResult pruned = ImprovedSearch(g, SumQuery(2, 5));
  const SearchResult unpruned =
      ImprovedSearch(g, SumQuery(2, 5), no_pruning);
  ASSERT_EQ(pruned.communities.size(), unpruned.communities.size());
  for (std::size_t i = 0; i < pruned.communities.size(); ++i) {
    EXPECT_EQ(pruned.communities[i].members, unpruned.communities[i].members);
  }
  // Pruning must do no more peel work than the unpruned run.
  EXPECT_LE(pruned.stats.peel_operations, unpruned.stats.peel_operations);
}

TEST(ImprovedSearchTest, FifoOrderSameResults) {
  const Graph g = TwoTrianglesAndK4();
  ImprovedOptions fifo;
  fifo.best_first = false;
  const SearchResult best_first = ImprovedSearch(g, SumQuery(2, 5));
  const SearchResult fifo_result = ImprovedSearch(g, SumQuery(2, 5), fifo);
  ASSERT_EQ(best_first.communities.size(), fifo_result.communities.size());
  for (std::size_t i = 0; i < best_first.communities.size(); ++i) {
    EXPECT_EQ(best_first.communities[i].members,
              fifo_result.communities[i].members);
  }
}

TEST(ImprovedSearchTest, ApproxNeverWorseThanGuarantee) {
  const Graph g = TwoTrianglesAndK4();
  const SearchResult exact = ImprovedSearch(g, SumQuery(2, 4));
  for (const double epsilon : {0.01, 0.1, 0.3, 0.9}) {
    ImprovedOptions approx;
    approx.epsilon = epsilon;
    const SearchResult result =
        ImprovedSearch(g, SumQuery(2, 4), approx);
    ASSERT_EQ(result.communities.size(), 4u) << "eps=" << epsilon;
    EXPECT_GE(result.communities[3].influence,
              (1.0 - epsilon) * exact.communities[3].influence);
    EXPECT_EQ(ValidateResult(g, SumQuery(2, 4), result), "");
  }
}

TEST(ImprovedSearchTest, ApproxDoesNoMoreWorkThanExact) {
  const Graph g = TwoTrianglesAndK4();
  ImprovedOptions approx;
  approx.epsilon = 0.5;
  const SearchResult exact = ImprovedSearch(g, SumQuery(2, 5));
  const SearchResult loose = ImprovedSearch(g, SumQuery(2, 5), approx);
  EXPECT_LE(loose.stats.peel_operations, exact.stats.peel_operations);
}

TEST(ImprovedSearchTest, TonicReturnsComponents) {
  const Graph g = TwoTrianglesAndK4();
  Query query = SumQuery(2, 5);
  query.non_overlapping = true;
  const SearchResult result = ImprovedSearch(g, query);
  ASSERT_EQ(result.communities.size(), 2u);
  EXPECT_EQ(result.communities[0].members, Members({6, 7, 8, 9}));
  EXPECT_EQ(ValidateResult(g, query, result), "");
}

TEST(ImprovedSearchTest, NoKCoreYieldsEmpty) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_TRUE(ImprovedSearch(g, SumQuery(5, 3)).communities.empty());
}

TEST(ImprovedSearchTest, SumSurplusMatchesNaive) {
  const Graph g = TwoTrianglesAndK4();
  Query query = SumQuery(2, 4);
  query.aggregation = AggregationSpec::SumSurplus(3.0);
  const SearchResult improved = ImprovedSearch(g, query);
  const SearchResult naive = NaiveSearch(g, query);
  ASSERT_EQ(improved.communities.size(), naive.communities.size());
  for (std::size_t i = 0; i < improved.communities.size(); ++i) {
    EXPECT_DOUBLE_EQ(improved.communities[i].influence,
                     naive.communities[i].influence);
  }
}

TEST(ImprovedSearchTest, PeelCountStaysSmallOnPowerLawGraph) {
  // Visiting a parent's members in id order peels every member whose
  // bound passes before f(L_r) has risen: 99 peels here. Visiting them by
  // ascending weight and stopping at the first pruned bound needs 12.
  Graph g = GenerateChungLu({4000, 12.0, 2.5, 7});
  AssignWeights(&g, WeightScheme::kUniform, 8);
  const Query query = SumQuery(10, 5);
  const SearchResult result = ImprovedSearch(g, query);
  ASSERT_EQ(result.communities.size(), 5u);
  EXPECT_LE(result.stats.peel_operations, 40u);

  // Both runs expand the same parents (the pool after each expansion is
  // the top-r of what either has generated), so the unpruned run peels
  // every member of every expanded parent once. Each member the pruned run
  // did not peel must be counted as pruned, on top of at most one pool
  // rejection per generated candidate.
  ImprovedOptions no_pruning;
  no_pruning.enable_bound_pruning = false;
  const SearchResult unpruned = ImprovedSearch(g, query, no_pruning);
  ASSERT_EQ(unpruned.communities.size(), result.communities.size());
  for (std::size_t i = 0; i < result.communities.size(); ++i) {
    EXPECT_EQ(unpruned.communities[i].members, result.communities[i].members);
  }
  const std::uint64_t skipped =
      unpruned.stats.peel_operations - result.stats.peel_operations;
  EXPECT_GE(result.stats.candidates_pruned, skipped);
  EXPECT_LE(result.stats.candidates_pruned,
            skipped + result.stats.candidates_generated);
}

TEST(ImprovedSearchDeathTest, RejectsAvg) {
  const Graph g = TwoTrianglesAndK4();
  Query query = SumQuery(2, 1);
  query.aggregation = AggregationSpec::Avg();
  EXPECT_DEATH(ImprovedSearch(g, query), "monotone");
}

TEST(ImprovedSearchDeathTest, RejectsSizeConstraint) {
  const Graph g = TwoTrianglesAndK4();
  Query query = SumQuery(2, 1);
  query.size_limit = 5;
  EXPECT_DEATH(ImprovedSearch(g, query), "size-unconstrained");
}

TEST(ImprovedSearchDeathTest, RejectsBadEpsilon) {
  const Graph g = TwoTrianglesAndK4();
  ImprovedOptions options;
  options.epsilon = 1.0;
  EXPECT_DEATH(ImprovedSearch(g, SumQuery(2, 1), options), "");
}

}  // namespace
}  // namespace ticl
