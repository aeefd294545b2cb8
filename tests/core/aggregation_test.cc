#include "core/aggregation.h"

#include <limits>

#include <gtest/gtest.h>

#include "testing/builders.h"

namespace ticl {
namespace {

using testing::Members;
using testing::TwoTrianglesAndK4;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Summary of {w = 2, 3, 5}: sum 10, size 3, min 2, max 5.
CommunitySummary SampleSummary() { return CommunitySummary{10.0, 3, 2.0, 5.0}; }

TEST(AggregationEvalTest, TableOneFormulas) {
  const CommunitySummary s = SampleSummary();
  const double total = 40.0;
  EXPECT_DOUBLE_EQ(EvaluateAggregation(AggregationSpec::Min(), s, total), 2.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregation(AggregationSpec::Max(), s, total), 5.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregation(AggregationSpec::Sum(), s, total),
                   10.0);
  EXPECT_DOUBLE_EQ(
      EvaluateAggregation(AggregationSpec::SumSurplus(2.0), s, total),
      10.0 + 2.0 * 3);
  EXPECT_DOUBLE_EQ(EvaluateAggregation(AggregationSpec::Avg(), s, total),
                   10.0 / 3);
  EXPECT_DOUBLE_EQ(
      EvaluateAggregation(AggregationSpec::WeightDensity(1.5), s, total),
      10.0 - 1.5 * 3);
}

TEST(AggregationEvalTest, BalancedDensityFormula) {
  // w(H) = 30 of total 40: denominator 30 - 10 = 20 -> 1.5.
  const CommunitySummary s{30.0, 4, 1.0, 20.0};
  EXPECT_DOUBLE_EQ(
      EvaluateAggregation(AggregationSpec::BalancedDensity(), s, 40.0), 1.5);
}

TEST(AggregationEvalTest, BalancedDensityDegenerateDenominator) {
  // w(H) = 10 of 40: denominator 10 - 30 < 0 -> -inf by convention.
  EXPECT_EQ(EvaluateAggregation(AggregationSpec::BalancedDensity(),
                                SampleSummary(), 40.0),
            kNegInf);
  // Exactly half: denominator 0 -> -inf.
  const CommunitySummary half{20.0, 2, 10.0, 10.0};
  EXPECT_EQ(
      EvaluateAggregation(AggregationSpec::BalancedDensity(), half, 40.0),
      kNegInf);
}

TEST(AggregationEvalTest, EmptyCommunityIsNegInf) {
  const CommunitySummary empty{};
  for (const auto spec :
       {AggregationSpec::Min(), AggregationSpec::Max(), AggregationSpec::Sum(),
        AggregationSpec::Avg(), AggregationSpec::SumSurplus(1.0),
        AggregationSpec::WeightDensity(1.0),
        AggregationSpec::BalancedDensity()}) {
    EXPECT_EQ(EvaluateAggregation(spec, empty, 10.0), kNegInf);
  }
}

TEST(SummarizeSubsetTest, FixtureTriangle) {
  const Graph g = TwoTrianglesAndK4();
  const CommunitySummary s = SummarizeSubset(g, Members({0, 1, 2}));
  EXPECT_DOUBLE_EQ(s.weight_sum, 60.0);
  EXPECT_EQ(s.size, 3u);
  EXPECT_DOUBLE_EQ(s.min_weight, 10.0);
  EXPECT_DOUBLE_EQ(s.max_weight, 30.0);
}

TEST(SummarizeSubsetTest, SingletonAndEmpty) {
  const Graph g = TwoTrianglesAndK4();
  const CommunitySummary s = SummarizeSubset(g, Members({9}));
  EXPECT_DOUBLE_EQ(s.weight_sum, 100.0);
  EXPECT_DOUBLE_EQ(s.min_weight, 100.0);
  EXPECT_DOUBLE_EQ(s.max_weight, 100.0);
  EXPECT_EQ(SummarizeSubset(g, {}).size, 0u);
}

TEST(EvaluateOnSubsetTest, MatchesManual) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_DOUBLE_EQ(
      EvaluateOnSubset(AggregationSpec::Sum(), g, Members({6, 7, 8, 9})),
      106.0);
  EXPECT_DOUBLE_EQ(
      EvaluateOnSubset(AggregationSpec::Avg(), g, Members({7, 8, 9})), 35.0);
  EXPECT_DOUBLE_EQ(
      EvaluateOnSubset(AggregationSpec::Min(), g, Members({0, 1, 2})), 10.0);
}

TEST(AggregationTraitsTest, NodeDomination) {
  EXPECT_TRUE(IsNodeDominated(Aggregation::kMin));
  EXPECT_TRUE(IsNodeDominated(Aggregation::kMax));
  EXPECT_FALSE(IsNodeDominated(Aggregation::kSum));
  EXPECT_FALSE(IsNodeDominated(Aggregation::kAvg));
  EXPECT_FALSE(IsNodeDominated(Aggregation::kSumSurplus));
  EXPECT_FALSE(IsNodeDominated(Aggregation::kWeightDensity));
  EXPECT_FALSE(IsNodeDominated(Aggregation::kBalancedDensity));
}

TEST(AggregationTraitsTest, Monotonicity) {
  EXPECT_TRUE(IsMonotoneUnderRemoval(AggregationSpec::Sum()));
  EXPECT_TRUE(IsMonotoneUnderRemoval(AggregationSpec::SumSurplus(0.0)));
  EXPECT_TRUE(IsMonotoneUnderRemoval(AggregationSpec::SumSurplus(3.0)));
  EXPECT_FALSE(
      IsMonotoneUnderRemoval({Aggregation::kSumSurplus, -1.0, 0.0}));
  EXPECT_FALSE(IsMonotoneUnderRemoval(AggregationSpec::Avg()));
  EXPECT_FALSE(IsMonotoneUnderRemoval(AggregationSpec::Min()));
  EXPECT_FALSE(IsMonotoneUnderRemoval(AggregationSpec::Max()));
  EXPECT_FALSE(IsMonotoneUnderRemoval(AggregationSpec::WeightDensity(1.0)));
}

TEST(AggregationTraitsTest, HardnessMatchesTableOne) {
  EXPECT_EQ(HardnessClass(AggregationSpec::Min()), "P");
  EXPECT_EQ(HardnessClass(AggregationSpec::Max()), "P");
  EXPECT_EQ(HardnessClass(AggregationSpec::Sum()), "P");
  EXPECT_EQ(HardnessClass(AggregationSpec::SumSurplus(1.0)), "P");
  EXPECT_EQ(HardnessClass(AggregationSpec::Avg()), "NP-hard");
  EXPECT_EQ(HardnessClass(AggregationSpec::WeightDensity(1.0)), "NP-hard");
  EXPECT_EQ(HardnessClass(AggregationSpec::BalancedDensity()), "NP-hard");
}

TEST(AggregationTraitsTest, MonotoneSumValueNeverIncreasesUnderRemoval) {
  // Corollary 2 sanity on the fixture: dropping any vertex from K4 lowers
  // sum and sum-surplus.
  const Graph g = TwoTrianglesAndK4();
  const VertexList k4 = Members({6, 7, 8, 9});
  for (const auto spec :
       {AggregationSpec::Sum(), AggregationSpec::SumSurplus(1.0)}) {
    const double whole = EvaluateOnSubset(spec, g, k4);
    for (const VertexId removed : k4) {
      VertexList rest;
      for (const VertexId v : k4) {
        if (v != removed) rest.push_back(v);
      }
      EXPECT_LT(EvaluateOnSubset(spec, g, rest), whole);
    }
  }
}

TEST(AggregationNamesTest, AllKindsNamed) {
  EXPECT_EQ(AggregationName(Aggregation::kMin), "min");
  EXPECT_EQ(AggregationName(Aggregation::kMax), "max");
  EXPECT_EQ(AggregationName(Aggregation::kSum), "sum");
  EXPECT_EQ(AggregationName(Aggregation::kSumSurplus), "sum-surplus");
  EXPECT_EQ(AggregationName(Aggregation::kAvg), "avg");
  EXPECT_EQ(AggregationName(Aggregation::kWeightDensity), "weight-density");
  EXPECT_EQ(AggregationName(Aggregation::kBalancedDensity),
            "balanced-density");
}

TEST(AggregationNamesTest, ParseRoundTripsEveryKind) {
  // Each kind comes back from its name with the same spec its factory
  // builds: alpha only for sum-surplus, beta only for weight density.
  const AggregationSpec expected[] = {
      AggregationSpec::Min(),          AggregationSpec::Max(),
      AggregationSpec::Sum(),          AggregationSpec::SumSurplus(0.5),
      AggregationSpec::Avg(),          AggregationSpec::WeightDensity(2.5),
      AggregationSpec::BalancedDensity()};
  for (const AggregationSpec& want : expected) {
    AggregationSpec got = AggregationSpec::Sum();
    ASSERT_TRUE(ParseAggregation(AggregationName(want.kind), 0.5, 2.5, &got))
        << AggregationName(want.kind);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.alpha, want.alpha) << AggregationName(want.kind);
    EXPECT_EQ(got.beta, want.beta) << AggregationName(want.kind);
  }
  AggregationSpec untouched = AggregationSpec::Avg();
  EXPECT_FALSE(ParseAggregation("median", 1.0, 1.0, &untouched));
  EXPECT_FALSE(ParseAggregation("Sum", 1.0, 1.0, &untouched));
  EXPECT_EQ(untouched.kind, Aggregation::kAvg);
}

TEST(AggregationNamesTest, FormulasMentionParameters) {
  EXPECT_EQ(AggregationFormula(AggregationSpec::Sum()), "w(H)");
  EXPECT_NE(AggregationFormula(AggregationSpec::SumSurplus(1.5)).find("1.5"),
            std::string::npos);
  EXPECT_NE(AggregationFormula(AggregationSpec::WeightDensity(0.25))
                .find("0.25"),
            std::string::npos);
}

TEST(SummarizeSubsetTest, RequiresWeights) {
  const Graph g = testing::PathGraph(3);
  EXPECT_DEATH(SummarizeSubset(g, Members({0})), "weights");
}

}  // namespace
}  // namespace ticl
