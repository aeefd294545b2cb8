// Cross-implementation property tests: the three independent solvers for
// monotone aggregations (Algorithm 1, Algorithm 2, and subset enumeration)
// must agree on random graphs, and every solver's output must validate.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/weights.h"
#include "core/exact_search.h"
#include "core/improved_search.h"
#include "core/local_search.h"
#include "core/minmax_search.h"
#include "core/naive_search.h"
#include "core/verification.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"

namespace ticl {
namespace {

Graph RandomWeightedEr(VertexId n, std::uint64_t m, std::uint64_t seed) {
  Graph g = GenerateErdosRenyi(n, m, seed);
  AssignWeights(&g, WeightScheme::kUniform, seed ^ 0x9999);
  return g;
}

void ExpectSameCommunities(const SearchResult& a, const SearchResult& b,
                           const std::string& label) {
  ASSERT_EQ(a.communities.size(), b.communities.size()) << label;
  for (std::size_t i = 0; i < a.communities.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.communities[i].influence, b.communities[i].influence)
        << label << " rank " << i;
    EXPECT_EQ(a.communities[i].members, b.communities[i].members)
        << label << " rank " << i;
  }
}

class SumCrossCheckTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SumCrossCheckTest, NaiveEqualsImprovedOnErdosRenyi) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(60, 160, seed);
  for (const VertexId k : {2u, 3u}) {
    for (const std::uint32_t r : {1u, 4u, 8u}) {
      Query query;
      query.k = k;
      query.r = r;
      query.aggregation = AggregationSpec::Sum();
      const SearchResult naive = NaiveSearch(g, query);
      const SearchResult improved = ImprovedSearch(g, query);
      ExpectSameCommunities(naive, improved,
                            "k=" + std::to_string(k) +
                                " r=" + std::to_string(r) +
                                " seed=" + std::to_string(seed));
      EXPECT_EQ(ValidateResult(g, query, naive), "");
      EXPECT_EQ(ValidateResult(g, query, improved), "");
    }
  }
}

TEST_P(SumCrossCheckTest, NaiveEqualsImprovedOnPowerLaw) {
  const std::uint64_t seed = GetParam();
  Graph g = GenerateChungLu({150, 6.0, 2.4, seed});
  AssignWeights(&g, WeightScheme::kUniform, seed + 1);
  Query query;
  query.k = 2;
  query.r = 5;
  query.aggregation = AggregationSpec::Sum();
  ExpectSameCommunities(NaiveSearch(g, query), ImprovedSearch(g, query),
                        "power-law seed=" + std::to_string(seed));
}

TEST_P(SumCrossCheckTest, ImprovedAblationsAgree) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(60, 160, seed);
  Query query;
  query.k = 2;
  query.r = 6;
  query.aggregation = AggregationSpec::Sum();
  const SearchResult reference = ImprovedSearch(g, query);
  ImprovedOptions no_pruning;
  no_pruning.enable_bound_pruning = false;
  ExpectSameCommunities(reference, ImprovedSearch(g, query, no_pruning),
                        "no-pruning");
  ImprovedOptions fifo;
  fifo.best_first = false;
  ExpectSameCommunities(reference, ImprovedSearch(g, query, fifo), "fifo");
  ImprovedOptions fifo_no_pruning;
  fifo_no_pruning.best_first = false;
  fifo_no_pruning.enable_bound_pruning = false;
  ExpectSameCommunities(reference,
                        ImprovedSearch(g, query, fifo_no_pruning),
                        "fifo-no-pruning");
}

// Tied weights: many members of one parent share a Line-13 bound, so the
// bound-ordered expansion's id tie-break and its break at bound == f(L_r)
// decide which members are peeled; many communities share one value, so
// the hash tie-break decides the ranking. None of it may change a result.
TEST_P(SumCrossCheckTest, TiedWeightsImprovedEqualsNaive) {
  const std::uint64_t seed = GetParam();
  const Graph base = GenerateErdosRenyi(60, 160, seed);
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const WeightScheme scheme :
       {WeightScheme::kDegree, WeightScheme::kCoreNumber}) {
    Graph g = base;
    AssignWeights(&g, scheme);
    graphs.emplace_back(WeightSchemeName(scheme), std::move(g));
  }
  Graph equal = base;
  equal.SetWeights(std::vector<Weight>(base.num_vertices(), 1.0));
  graphs.emplace_back("all-equal", std::move(equal));

  for (const auto& [weights, g] : graphs) {
    for (const auto spec :
         {AggregationSpec::Sum(), AggregationSpec::SumSurplus(0.5),
          AggregationSpec::SumSurplus(2.0)}) {
      for (const VertexId k : {2u, 3u}) {
        for (const std::uint32_t r : {1u, 4u, 8u}) {
          Query query;
          query.k = k;
          query.r = r;
          query.aggregation = spec;
          const std::string label =
              weights + " " + AggregationFormula(spec) +
              " k=" + std::to_string(k) + " r=" + std::to_string(r) +
              " seed=" + std::to_string(seed);
          const SearchResult improved = ImprovedSearch(g, query);
          ExpectSameCommunities(NaiveSearch(g, query), improved, label);
          EXPECT_EQ(ValidateResult(g, query, improved), "") << label;

          ImprovedOptions no_pruning;
          no_pruning.enable_bound_pruning = false;
          ExpectSameCommunities(improved,
                                ImprovedSearch(g, query, no_pruning),
                                label + " no-pruning");
          ImprovedOptions fifo;
          fifo.best_first = false;
          ExpectSameCommunities(improved, ImprovedSearch(g, query, fifo),
                                label + " fifo");

          // Theorem 6: the approximate r-th value is within (1 - eps) of
          // the exact one.
          for (const double epsilon : {0.1, 0.5}) {
            ImprovedOptions approx;
            approx.epsilon = epsilon;
            const SearchResult loose = ImprovedSearch(g, query, approx);
            EXPECT_EQ(ValidateResult(g, query, loose), "") << label;
            ASSERT_EQ(loose.communities.size(), improved.communities.size())
                << label << " eps=" << epsilon;
            if (improved.communities.empty()) continue;
            EXPECT_GE(loose.communities.back().influence,
                      (1.0 - epsilon) * improved.communities.back().influence)
                << label << " eps=" << epsilon;
          }
        }
      }
    }
  }
}

TEST_P(SumCrossCheckTest, ImprovedEqualsExactEnumerationOnTinyGraphs) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(12, 26, seed);
  for (const VertexId k : {2u, 3u}) {
    Query query;
    query.k = k;
    query.r = 4;
    query.aggregation = AggregationSpec::Sum();
    const SearchResult improved = ImprovedSearch(g, query);
    const SearchResult exact = ExactSearch(g, query);
    // The deletion family's top-r values must equal the global optimum over
    // all connected k-cores (monotonicity makes best-first exact).
    ASSERT_EQ(improved.communities.size(), exact.communities.size());
    for (std::size_t i = 0; i < exact.communities.size(); ++i) {
      EXPECT_DOUBLE_EQ(improved.communities[i].influence,
                       exact.communities[i].influence)
          << "k=" << k << " rank " << i;
    }
  }
}

TEST_P(SumCrossCheckTest, SumSurplusAgreesAcrossSolvers) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(50, 130, seed);
  Query query;
  query.k = 2;
  query.r = 5;
  query.aggregation = AggregationSpec::SumSurplus(0.5);
  ExpectSameCommunities(NaiveSearch(g, query), ImprovedSearch(g, query),
                        "sum-surplus");
}

TEST_P(SumCrossCheckTest, TonicComponentsAgree) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(60, 140, seed);
  Query query;
  query.k = 2;
  query.r = 5;
  query.non_overlapping = true;
  query.aggregation = AggregationSpec::Sum();
  const SearchResult naive = NaiveSearch(g, query);
  const SearchResult improved = ImprovedSearch(g, query);
  ExpectSameCommunities(naive, improved, "tonic");
  EXPECT_EQ(ValidateResult(g, query, naive), "");
}

TEST_P(SumCrossCheckTest, LocalSearchValidAndBoundedByExact) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(14, 32, seed);
  Query query;
  query.k = 2;
  query.r = 3;
  query.size_limit = 5;
  for (const auto spec : {AggregationSpec::Sum(), AggregationSpec::Avg()}) {
    query.aggregation = spec;
    const SearchResult exact = ExactSearch(g, query);
    for (const bool greedy : {true, false}) {
      LocalSearchOptions options;
      options.greedy = greedy;
      const SearchResult heuristic = LocalSearch(g, query, options);
      EXPECT_EQ(ValidateResult(g, query, heuristic), "");
      if (!heuristic.communities.empty()) {
        ASSERT_FALSE(exact.communities.empty());
        EXPECT_LE(heuristic.communities[0].influence,
                  exact.communities[0].influence + 1e-12)
            << AggregationName(spec.kind) << " greedy=" << greedy;
      }
    }
  }
}

TEST_P(SumCrossCheckTest, MinPeelMatchesMaximalityFilteredEnumeration) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(11, 22, seed);
  Query query;
  query.k = 2;
  query.r = 6;
  query.aggregation = AggregationSpec::Min();
  ExactOptions options;
  options.enforce_maximality = true;
  const SearchResult exact = ExactSearch(g, query, options);
  const SearchResult peel = MinPeelSearch(g, query);
  ASSERT_EQ(exact.communities.size(), peel.communities.size())
      << "seed=" << seed;
  for (std::size_t i = 0; i < exact.communities.size(); ++i) {
    EXPECT_DOUBLE_EQ(exact.communities[i].influence,
                     peel.communities[i].influence)
        << "seed=" << seed << " rank " << i;
    EXPECT_EQ(exact.communities[i].members, peel.communities[i].members)
        << "seed=" << seed << " rank " << i;
  }
}

TEST_P(SumCrossCheckTest, EverySolverOutputValidates) {
  const std::uint64_t seed = GetParam();
  const Graph g = RandomWeightedEr(80, 220, seed);
  Query query;
  query.k = 3;
  query.r = 4;
  query.aggregation = AggregationSpec::Sum();
  EXPECT_EQ(ValidateResult(g, query, NaiveSearch(g, query)), "");
  EXPECT_EQ(ValidateResult(g, query, ImprovedSearch(g, query)), "");
  Query min_query = query;
  min_query.aggregation = AggregationSpec::Min();
  EXPECT_EQ(ValidateResult(g, min_query, MinPeelSearch(g, min_query)), "");
  Query max_query = query;
  max_query.aggregation = AggregationSpec::Max();
  EXPECT_EQ(
      ValidateResult(g, max_query, MaxComponentsSearch(g, max_query)), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SumCrossCheckTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808, 909, 1010));

}  // namespace
}  // namespace ticl
