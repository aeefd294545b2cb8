// Query model: the (k, r, s, f) tuple of paper Problems 1 (TIC) and 2
// (TONIC).

#ifndef TICL_CORE_QUERY_H_
#define TICL_CORE_QUERY_H_

#include <cstdint>
#include <string>

#include "core/aggregation.h"
#include "graph/graph.h"

namespace ticl {

struct Query {
  /// Degree constraint k (every member needs >= k neighbours inside).
  VertexId k = 1;
  /// Output size: the top-r communities.
  std::uint32_t r = 1;
  /// Size constraint s; 0 means unconstrained (the paper's s = |V|).
  VertexId size_limit = 0;
  /// The aggregation function f.
  AggregationSpec aggregation = AggregationSpec::Sum();
  /// Problem 2 (TONIC): results must be pairwise disjoint.
  bool non_overlapping = false;

  bool size_constrained() const { return size_limit != 0; }

  /// Effective size bound: size_limit, or n when unconstrained.
  VertexId EffectiveSizeLimit(const Graph& g) const {
    return size_constrained() ? size_limit : g.num_vertices();
  }
};

/// Returns "" if the query is well-formed for `g`, else a diagnostic:
/// k >= 1, r >= 1, a size limit (when given) of at least k + 1 (smaller
/// k-cores cannot exist), assigned weights, and an active alpha or beta
/// for which w(V) + |param| * |V| (a bound on |f(H)|) is finite.
std::string ValidateQuery(const Query& query, const Graph& g);

/// One-line description, e.g. "TIC k=4 r=5 s=20 f=avg".
std::string QueryToString(const Query& query);

}  // namespace ticl

#endif  // TICL_CORE_QUERY_H_
