// Aggregation functions over community vertex weights (paper Table I).
//
// The paper generalizes influential community search from `min` to a family
// of aggregation functions whose algebraic properties decide both the
// hardness of the search problem and which algorithm applies:
//
//   function          formula              hardness (unconstrained top-r)
//   min               min_{v in H} w(v)    P (node-dominated)
//   max               max_{v in H} w(v)    P (node-dominated)
//   sum               w(H)                 P (monotone under removal)
//   sum-surplus       w(H) + alpha |H|     P (monotone for alpha >= 0)
//   avg               w(H) / |H|           NP-hard
//   weight density    w(H) - beta |H|      NP-hard
//   balanced density  w(H)/(w(H)-w(V\H))   NP-hard
//
// Every size-constrained variant under sum or avg is NP-hard (paper §III).

#ifndef TICL_CORE_AGGREGATION_H_
#define TICL_CORE_AGGREGATION_H_

#include <cstddef>
#include <string>

#include "graph/graph.h"

namespace ticl {

enum class Aggregation {
  kMin,
  kMax,
  kSum,
  kSumSurplus,
  kAvg,
  kWeightDensity,
  kBalancedDensity,
};

/// An aggregation function plus its parameters.
struct AggregationSpec {
  Aggregation kind = Aggregation::kSum;
  /// sum-surplus: f(H) = w(H) + alpha * |H|. Must be >= 0 for the
  /// polynomial-time solvers (monotonicity).
  double alpha = 1.0;
  /// weight density: f(H) = w(H) - beta * |H|.
  double beta = 1.0;

  static AggregationSpec Min() { return {Aggregation::kMin, 0, 0}; }
  static AggregationSpec Max() { return {Aggregation::kMax, 0, 0}; }
  static AggregationSpec Sum() { return {Aggregation::kSum, 0, 0}; }
  static AggregationSpec SumSurplus(double alpha) {
    return {Aggregation::kSumSurplus, alpha, 0};
  }
  static AggregationSpec Avg() { return {Aggregation::kAvg, 0, 0}; }
  static AggregationSpec WeightDensity(double beta) {
    return {Aggregation::kWeightDensity, 0, beta};
  }
  static AggregationSpec BalancedDensity() {
    return {Aggregation::kBalancedDensity, 0, 0};
  }
};

/// O(1) summary from which every Table I function can be evaluated.
struct CommunitySummary {
  double weight_sum = 0.0;
  std::size_t size = 0;
  double min_weight = 0.0;
  double max_weight = 0.0;
};

/// Accumulates `members` of `g` into a summary. O(|members|).
CommunitySummary SummarizeSubset(const Graph& g, const VertexList& members);

/// Evaluates the aggregation on a summary. `total_graph_weight` is only
/// consulted by balanced density (it needs w(V \ H)); pass
/// g.total_weight(). Empty communities evaluate to -infinity.
/// Balanced density with non-positive denominator evaluates to -infinity
/// (documented convention; the paper leaves this case unspecified).
double EvaluateAggregation(const AggregationSpec& spec,
                           const CommunitySummary& summary,
                           double total_graph_weight);

/// Convenience: summarize + evaluate.
double EvaluateOnSubset(const AggregationSpec& spec, const Graph& g,
                        const VertexList& members);

/// "Node domination" (paper Def. 6): the community value equals some single
/// member's value. Holds for min and max; these admit the prior-work
/// peel-style algorithms.
bool IsNodeDominated(Aggregation kind);

/// Monotone non-increasing under vertex removal (paper Corollary 2 — the
/// property Algorithm 2's pruning requires). True for sum over non-negative
/// weights and for sum-surplus with alpha >= 0.
bool IsMonotoneUnderRemoval(const AggregationSpec& spec);

/// True when the unconstrained top-r problem is polynomial-time solvable
/// (min, max, sum, sum-surplus with alpha >= 0); NP-hard otherwise.
bool IsPolynomialUnconstrained(const AggregationSpec& spec);

/// Hardness label for Table I ("P" or "NP-hard").
std::string HardnessClass(const AggregationSpec& spec);

/// "min", "max", "sum", "sum-surplus", "avg", "weight-density",
/// "balanced-density".
std::string AggregationName(Aggregation kind);

/// Inverse of AggregationName: resolves a CLI/wire aggregation name into
/// `spec`, taking `alpha` for sum-surplus and `beta` for weight density
/// (the other kinds carry no parameter). False for an unknown name.
bool ParseAggregation(const std::string& name, double alpha, double beta,
                      AggregationSpec* spec);

/// Human-readable formula, e.g. "w(H) + 1.5|H|".
std::string AggregationFormula(const AggregationSpec& spec);

}  // namespace ticl

#endif  // TICL_CORE_AGGREGATION_H_
