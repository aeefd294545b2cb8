#include "core/query.h"

#include <cmath>
#include <cstdio>

namespace ticl {

std::string ValidateQuery(const Query& query, const Graph& g) {
  if (query.k < 1) return "degree constraint k must be >= 1";
  if (query.r < 1) return "output size r must be >= 1";
  if (query.size_constrained() && query.size_limit < query.k + 1) {
    return "size limit s must be >= k + 1 (a k-core needs k + 1 vertices)";
  }
  if (!g.has_weights()) return "graph has no vertex weights assigned";
  if (query.aggregation.kind == Aggregation::kSumSurplus &&
      query.aggregation.alpha < 0.0) {
    return "sum-surplus alpha must be >= 0 (monotonicity; use "
           "weight-density for negative per-vertex surplus)";
  }
  // |f(H)| <= w(V) + |param| * |V| under both linear aggregations; a
  // parameter that overflows the bound could make an influence infinite,
  // which no JSON reply can carry.
  const AggregationSpec& f = query.aggregation;
  const bool surplus = f.kind == Aggregation::kSumSurplus;
  const double param = surplus ? f.alpha : f.beta;
  if ((surplus || f.kind == Aggregation::kWeightDensity) &&
      !std::isfinite(g.total_weight() + std::fabs(param) * g.num_vertices())) {
    return surplus ? "sum-surplus alpha is too large for this graph: "
                     "w(V) + |alpha| * |V| must be finite"
                   : "weight-density beta is too large for this graph: "
                     "w(V) + |beta| * |V| must be finite";
  }
  return "";
}

std::string QueryToString(const Query& query) {
  char buf[160];
  if (query.size_constrained()) {
    std::snprintf(buf, sizeof(buf), "%s k=%u r=%u s=%u f=%s",
                  query.non_overlapping ? "TONIC" : "TIC", query.k, query.r,
                  query.size_limit,
                  AggregationName(query.aggregation.kind).c_str());
  } else {
    std::snprintf(buf, sizeof(buf), "%s k=%u r=%u s=unbounded f=%s",
                  query.non_overlapping ? "TONIC" : "TIC", query.k, query.r,
                  AggregationName(query.aggregation.kind).c_str());
  }
  return buf;
}

}  // namespace ticl
