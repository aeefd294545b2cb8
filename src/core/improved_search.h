// Algorithm 2 (paper §IV.A): TIC-IMPROVED, the lower-bound-pruned top-r
// search for size-unconstrained queries under monotone aggregation
// functions. epsilon = 0 is the paper's "Improve" configuration (exact);
// epsilon > 0 is "Approx" with the Theorem 6 guarantee
// ra / re >= 1 - epsilon on the r-th influence value.
//
// Structure: the top-r list L holds the best r candidates seen; each round
// expands the best not-yet-expanded candidate L_max by deleting each of its
// vertices, cascade-peeling and re-inserting the resulting components.
// Monotonicity (Corollary 2) gives two prunings:
//   * a child whose O(1) value upper bound f(L_max) - contribution(v)
//     cannot beat the current r-th value f(L_r) is skipped without peeling
//     (the paper's Line 13 test). The members of L_max are visited by
//     ascending weight, ties by ascending id. Along that order the bound
//     never increases, and f(L_r) never decreases as children enter L, so
//     the first member that fails the strict test `bound < f(L_r)` ends the
//     expansion: every member after it would fail too. The early children
//     raise f(L_r) quickly, so an expansion usually peels a few members
//     instead of all of L_max. Exactness is unaffected: a child that
//     belongs in the final top-r has value >= f(L_r) at every moment, so
//     its bound passes whenever it is tested, whatever the order. Ties in
//     weight therefore cannot change the result; the id tie-break only
//     makes the visit, and so the peel counters, deterministic. The bound
//     carries a small floating-point rounding allowance so that a child
//     whose recomputed value ties f(L_r) is never pruned. The skipped
//     members count as candidates_pruned;
//   * candidates evicted from L can never re-enter the top-r, so L *is*
//     the complete frontier — memory stays at O(r) communities.
// With epsilon > 0 the loop stops as soon as L already holds r candidates
// with value >= (1 - epsilon) * f(L_max): the exact r-th value re is at
// most f(L_max), so every returned value meets the bound.

#ifndef TICL_CORE_IMPROVED_SEARCH_H_
#define TICL_CORE_IMPROVED_SEARCH_H_

#include "core/query.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ticl {

class CoreIndex;  // serve/core_index.h

struct ImprovedOptions {
  /// Approximation ratio; 0 = exact ("Improve"), paper default 0.1 for
  /// "Approx".
  double epsilon = 0.0;
  /// Ablation: disable the O(1) child-value bound pruning (always peel).
  bool enable_bound_pruning = true;
  /// Ablation: expand candidates in FIFO order instead of best-first.
  /// Exactness is unaffected (the top-r fixpoint is order-independent);
  /// the number of expansions is not. Either way, each expanded
  /// candidate's members are visited by ascending weight and the visit
  /// stops at the first pruned bound (see the file comment).
  bool best_first = true;
  /// Optional precomputed index for the queried graph; replaces the
  /// seeding decomposition (Lines 1-2) without changing the result.
  const CoreIndex* core_index = nullptr;
};

/// Preconditions (checked): valid query, size-unconstrained, monotone
/// aggregation. TONIC queries short-circuit to the top-r k-core components
/// (paper §IV, "Non-overlapping": Lines 1-3 of Algorithm 2 suffice).
SearchResult ImprovedSearch(const Graph& g, const Query& query,
                            const ImprovedOptions& options = {});

}  // namespace ticl

#endif  // TICL_CORE_IMPROVED_SEARCH_H_
