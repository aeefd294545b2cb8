#include "core/search.h"

#include <limits>

#include <gtest/gtest.h>

#include "core/verification.h"
#include "testing/builders.h"

namespace ticl {
namespace {

using testing::TwoTrianglesAndK4;

TEST(AutoSolverTest, HardnessDrivenDispatch) {
  Query q;
  q.aggregation = AggregationSpec::Min();
  EXPECT_EQ(AutoSolverFor(q), SolverKind::kMinPeel);
  q.aggregation = AggregationSpec::Max();
  EXPECT_EQ(AutoSolverFor(q), SolverKind::kMaxComponents);
  q.aggregation = AggregationSpec::Sum();
  EXPECT_EQ(AutoSolverFor(q), SolverKind::kImproved);
  q.aggregation = AggregationSpec::SumSurplus(1.0);
  EXPECT_EQ(AutoSolverFor(q), SolverKind::kImproved);
  q.aggregation = AggregationSpec::Avg();
  EXPECT_EQ(AutoSolverFor(q), SolverKind::kLocalGreedy);
  q.aggregation = AggregationSpec::WeightDensity(1.0);
  EXPECT_EQ(AutoSolverFor(q), SolverKind::kLocalGreedy);
}

TEST(AutoSolverTest, SizeConstraintForcesLocalSearch) {
  Query q;
  q.k = 2;
  q.size_limit = 5;
  for (const auto spec :
       {AggregationSpec::Min(), AggregationSpec::Max(),
        AggregationSpec::Sum(), AggregationSpec::Avg()}) {
    q.aggregation = spec;
    EXPECT_EQ(AutoSolverFor(q), SolverKind::kLocalGreedy);
  }
}

TEST(SolveTest, AutoProducesValidResultsForEveryAggregation) {
  const Graph g = TwoTrianglesAndK4();
  for (const auto spec :
       {AggregationSpec::Min(), AggregationSpec::Max(),
        AggregationSpec::Sum(), AggregationSpec::SumSurplus(1.0),
        AggregationSpec::Avg(), AggregationSpec::WeightDensity(1.0)}) {
    Query q;
    q.k = 2;
    q.r = 3;
    q.aggregation = spec;
    const SearchResult result = Solve(g, q);
    EXPECT_EQ(ValidateResult(g, q, result), "")
        << AggregationName(spec.kind);
    EXPECT_FALSE(result.communities.empty()) << AggregationName(spec.kind);
  }
}

TEST(SolveTest, ExplicitSolverDispatch) {
  const Graph g = TwoTrianglesAndK4();
  Query q;
  q.k = 2;
  q.r = 2;
  q.aggregation = AggregationSpec::Sum();

  SolveOptions naive;
  naive.solver = SolverKind::kNaive;
  SolveOptions improved;
  improved.solver = SolverKind::kImproved;
  SolveOptions approx;
  approx.solver = SolverKind::kApprox;
  approx.epsilon = 0.1;

  const SearchResult rn = Solve(g, q, naive);
  const SearchResult ri = Solve(g, q, improved);
  const SearchResult ra = Solve(g, q, approx);
  ASSERT_EQ(rn.communities.size(), 2u);
  ASSERT_EQ(ri.communities.size(), 2u);
  ASSERT_EQ(ra.communities.size(), 2u);
  EXPECT_DOUBLE_EQ(rn.communities[0].influence, 106.0);
  EXPECT_DOUBLE_EQ(ri.communities[0].influence, 106.0);
  EXPECT_GE(ra.communities[1].influence,
            0.9 * ri.communities[1].influence);
}

TEST(SolveTest, LocalVariantsRespectGreedyFlag) {
  const Graph g = TwoTrianglesAndK4();
  Query q;
  q.k = 2;
  q.r = 2;
  q.size_limit = 4;
  q.aggregation = AggregationSpec::Sum();
  SolveOptions greedy;
  greedy.solver = SolverKind::kLocalGreedy;
  SolveOptions random;
  random.solver = SolverKind::kLocalRandom;
  const SearchResult rg = Solve(g, q, greedy);
  const SearchResult rr = Solve(g, q, random);
  EXPECT_EQ(ValidateResult(g, q, rg), "");
  EXPECT_EQ(ValidateResult(g, q, rr), "");
  ASSERT_FALSE(rg.communities.empty());
  ASSERT_FALSE(rr.communities.empty());
  // Greedy is never worse on this fixture.
  EXPECT_GE(rg.communities[0].influence, rr.communities[0].influence);
}

TEST(SolveTest, ExactSolverViaFacade) {
  const Graph g = TwoTrianglesAndK4();
  Query q;
  q.k = 2;
  q.r = 1;
  q.size_limit = 3;
  q.aggregation = AggregationSpec::Sum();
  SolveOptions options;
  options.solver = SolverKind::kExact;
  const SearchResult result = Solve(g, q, options);
  ASSERT_EQ(result.communities.size(), 1u);
  EXPECT_DOUBLE_EQ(result.communities[0].influence, 105.0);
}

// Regression: a user-supplied --epsilon of 1.0 (or anything outside
// [0, 1)) used to sail through the tools into ImprovedSearch's
// TICL_CHECK and abort the process; ValidateSolveOptions is the clean
// gate ticl_query now uses.
TEST(ValidateSolveOptionsTest, RejectsEpsilonOutsideHalfOpenUnitRange) {
  SolveOptions options;
  EXPECT_EQ(ValidateSolveOptions(options), "");  // default 0.1
  options.epsilon = 0.0;
  EXPECT_EQ(ValidateSolveOptions(options), "");  // exact Improve config
  options.epsilon = 0.999;
  EXPECT_EQ(ValidateSolveOptions(options), "");
  options.epsilon = 1.0;
  EXPECT_NE(ValidateSolveOptions(options), "");
  options.epsilon = -0.1;
  EXPECT_NE(ValidateSolveOptions(options), "");
  options.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(ValidateSolveOptions(options), "");
}

TEST(SolverKindNameTest, AllNamed) {
  EXPECT_EQ(SolverKindName(SolverKind::kAuto), "auto");
  EXPECT_EQ(SolverKindName(SolverKind::kNaive), "naive");
  EXPECT_EQ(SolverKindName(SolverKind::kImproved), "improved");
  EXPECT_EQ(SolverKindName(SolverKind::kApprox), "approx");
  EXPECT_EQ(SolverKindName(SolverKind::kExact), "exact");
  EXPECT_EQ(SolverKindName(SolverKind::kLocalGreedy), "local-greedy");
  EXPECT_EQ(SolverKindName(SolverKind::kLocalRandom), "local-random");
  EXPECT_EQ(SolverKindName(SolverKind::kMinPeel), "min-peel");
  EXPECT_EQ(SolverKindName(SolverKind::kMaxComponents), "max-components");
}

TEST(SolveTest, TonicAutoAcrossAggregations) {
  const Graph g = TwoTrianglesAndK4();
  for (const auto spec :
       {AggregationSpec::Min(), AggregationSpec::Max(),
        AggregationSpec::Sum(), AggregationSpec::Avg()}) {
    Query q;
    q.k = 2;
    q.r = 3;
    q.non_overlapping = true;
    q.aggregation = spec;
    const SearchResult result = Solve(g, q);
    EXPECT_EQ(ValidateResult(g, q, result), "")
        << AggregationName(spec.kind);
  }
}

}  // namespace
}  // namespace ticl
