#include "core/query.h"

#include <gtest/gtest.h>

#include "testing/builders.h"

namespace ticl {
namespace {

using testing::TwoTrianglesAndK4;

TEST(QueryTest, DefaultsAreValidOnWeightedGraph) {
  const Graph g = TwoTrianglesAndK4();
  EXPECT_EQ(ValidateQuery(Query{}, g), "");
}

TEST(QueryTest, RejectsZeroK) {
  const Graph g = TwoTrianglesAndK4();
  Query q;
  q.k = 0;
  EXPECT_NE(ValidateQuery(q, g), "");
}

TEST(QueryTest, RejectsZeroR) {
  const Graph g = TwoTrianglesAndK4();
  Query q;
  q.r = 0;
  EXPECT_NE(ValidateQuery(q, g), "");
}

TEST(QueryTest, RejectsSizeLimitBelowKPlusOne) {
  const Graph g = TwoTrianglesAndK4();
  Query q;
  q.k = 3;
  q.size_limit = 3;
  EXPECT_NE(ValidateQuery(q, g), "");
  q.size_limit = 4;
  EXPECT_EQ(ValidateQuery(q, g), "");
}

TEST(QueryTest, RejectsUnweightedGraph) {
  const Graph g = testing::PathGraph(4);
  EXPECT_NE(ValidateQuery(Query{}, g), "");
}

TEST(QueryTest, RejectsNegativeSumSurplusAlpha) {
  const Graph g = TwoTrianglesAndK4();
  Query q;
  q.aggregation = AggregationSpec{Aggregation::kSumSurplus, -2.0, 0.0};
  EXPECT_NE(ValidateQuery(q, g), "");
}

// w(V) + |param| * |V| bounds |f(H)|: a parameter that overflows it could
// make an influence infinite, and "inf" is not JSON.
TEST(QueryTest, RejectsParametersThatOverflowTheInfluenceBound) {
  const Graph g = TwoTrianglesAndK4();  // 10 vertices
  Query q;
  q.aggregation = AggregationSpec::WeightDensity(-1e308);
  EXPECT_NE(ValidateQuery(q, g).find("weight-density beta"),
            std::string::npos);
  q.aggregation = AggregationSpec::WeightDensity(-1e300);
  EXPECT_EQ(ValidateQuery(q, g), "");
  q.aggregation = AggregationSpec::SumSurplus(1e308);
  EXPECT_NE(ValidateQuery(q, g).find("sum-surplus alpha"), std::string::npos);
  q.aggregation = AggregationSpec::SumSurplus(1e300);
  EXPECT_EQ(ValidateQuery(q, g), "");
  // Inactive parameters are not checked: beta means nothing under sum.
  q.aggregation = AggregationSpec::Sum();
  q.aggregation.beta = -1e308;
  EXPECT_EQ(ValidateQuery(q, g), "");
}

TEST(QueryTest, SizeConstrainedAccessors) {
  const Graph g = TwoTrianglesAndK4();
  Query q;
  EXPECT_FALSE(q.size_constrained());
  EXPECT_EQ(q.EffectiveSizeLimit(g), g.num_vertices());
  q.size_limit = 4;
  EXPECT_TRUE(q.size_constrained());
  EXPECT_EQ(q.EffectiveSizeLimit(g), 4u);
}

TEST(QueryTest, ToStringMentionsEveryField) {
  Query q;
  q.k = 4;
  q.r = 5;
  q.size_limit = 20;
  q.aggregation = AggregationSpec::Avg();
  q.non_overlapping = true;
  const std::string s = QueryToString(q);
  EXPECT_NE(s.find("TONIC"), std::string::npos);
  EXPECT_NE(s.find("k=4"), std::string::npos);
  EXPECT_NE(s.find("r=5"), std::string::npos);
  EXPECT_NE(s.find("s=20"), std::string::npos);
  EXPECT_NE(s.find("avg"), std::string::npos);
  q.size_limit = 0;
  q.non_overlapping = false;
  const std::string u = QueryToString(q);
  EXPECT_NE(u.find("TIC"), std::string::npos);
  EXPECT_NE(u.find("unbounded"), std::string::npos);
}

}  // namespace
}  // namespace ticl
