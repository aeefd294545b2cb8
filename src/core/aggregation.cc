#include "core/aggregation.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "util/check.h"

namespace ticl {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

CommunitySummary SummarizeSubset(const Graph& g, const VertexList& members) {
  TICL_CHECK_MSG(g.has_weights(), "graph weights not assigned");
  CommunitySummary s;
  s.size = members.size();
  if (members.empty()) return s;
  s.min_weight = std::numeric_limits<double>::infinity();
  s.max_weight = kNegInf;
  for (const VertexId v : members) {
    const Weight w = g.weight(v);
    s.weight_sum += w;
    s.min_weight = std::min(s.min_weight, w);
    s.max_weight = std::max(s.max_weight, w);
  }
  return s;
}

double EvaluateAggregation(const AggregationSpec& spec,
                           const CommunitySummary& summary,
                           double total_graph_weight) {
  if (summary.size == 0) return kNegInf;
  const auto size = static_cast<double>(summary.size);
  switch (spec.kind) {
    case Aggregation::kMin:
      return summary.min_weight;
    case Aggregation::kMax:
      return summary.max_weight;
    case Aggregation::kSum:
      return summary.weight_sum;
    case Aggregation::kSumSurplus:
      return summary.weight_sum + spec.alpha * size;
    case Aggregation::kAvg:
      return summary.weight_sum / size;
    case Aggregation::kWeightDensity:
      return summary.weight_sum - spec.beta * size;
    case Aggregation::kBalancedDensity: {
      // w(H) / (w(H) - w(V \ H)) with w(V \ H) = W_total - w(H).
      const double denominator =
          2.0 * summary.weight_sum - total_graph_weight;
      if (denominator <= 0.0) return kNegInf;
      return summary.weight_sum / denominator;
    }
  }
  TICL_CHECK_MSG(false, "unknown aggregation kind");
  return kNegInf;
}

double EvaluateOnSubset(const AggregationSpec& spec, const Graph& g,
                        const VertexList& members) {
  return EvaluateAggregation(spec, SummarizeSubset(g, members),
                             g.total_weight());
}

bool IsNodeDominated(Aggregation kind) {
  return kind == Aggregation::kMin || kind == Aggregation::kMax;
}

bool IsMonotoneUnderRemoval(const AggregationSpec& spec) {
  switch (spec.kind) {
    case Aggregation::kSum:
      return true;  // weights are non-negative by Graph invariant
    case Aggregation::kSumSurplus:
      return spec.alpha >= 0.0;
    default:
      return false;
  }
}

bool IsPolynomialUnconstrained(const AggregationSpec& spec) {
  return IsNodeDominated(spec.kind) || IsMonotoneUnderRemoval(spec);
}

std::string HardnessClass(const AggregationSpec& spec) {
  return IsPolynomialUnconstrained(spec) ? "P" : "NP-hard";
}

std::string AggregationName(Aggregation kind) {
  switch (kind) {
    case Aggregation::kMin:
      return "min";
    case Aggregation::kMax:
      return "max";
    case Aggregation::kSum:
      return "sum";
    case Aggregation::kSumSurplus:
      return "sum-surplus";
    case Aggregation::kAvg:
      return "avg";
    case Aggregation::kWeightDensity:
      return "weight-density";
    case Aggregation::kBalancedDensity:
      return "balanced-density";
  }
  TICL_CHECK_MSG(false, "unknown aggregation kind");
  return "";
}

bool ParseAggregation(const std::string& name, double alpha, double beta,
                      AggregationSpec* spec) {
  // Driven by AggregationName so a new Aggregation only needs the switch
  // above updated.
  static constexpr Aggregation kAll[] = {
      Aggregation::kMin,           Aggregation::kMax,
      Aggregation::kSum,           Aggregation::kSumSurplus,
      Aggregation::kAvg,           Aggregation::kWeightDensity,
      Aggregation::kBalancedDensity};
  for (const Aggregation kind : kAll) {
    if (name == AggregationName(kind)) {
      *spec = {kind, kind == Aggregation::kSumSurplus ? alpha : 0.0,
               kind == Aggregation::kWeightDensity ? beta : 0.0};
      return true;
    }
  }
  return false;
}

std::string AggregationFormula(const AggregationSpec& spec) {
  char buf[96];
  switch (spec.kind) {
    case Aggregation::kMin:
      return "min_{v in H} w(v)";
    case Aggregation::kMax:
      return "max_{v in H} w(v)";
    case Aggregation::kSum:
      return "w(H)";
    case Aggregation::kSumSurplus:
      std::snprintf(buf, sizeof(buf), "w(H) + %g|H|", spec.alpha);
      return buf;
    case Aggregation::kAvg:
      return "w(H) / |H|";
    case Aggregation::kWeightDensity:
      std::snprintf(buf, sizeof(buf), "w(H) - %g|H|", spec.beta);
      return buf;
    case Aggregation::kBalancedDensity:
      return "w(H) / (w(H) - w(V\\H))";
  }
  TICL_CHECK_MSG(false, "unknown aggregation kind");
  return "";
}

}  // namespace ticl
