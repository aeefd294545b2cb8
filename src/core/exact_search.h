// Algorithm 3 (paper §V.A): TIC-EXACT — brute-force enumeration of every
// vertex subset of size k+1 .. s, keeping those that induce a connected
// k-core and ranking them by influence.
//
// Exponential (sum over i of C(n, i) subsets); the paper presents it as the
// unusable-but-correct reference, and that is exactly its role here: ground
// truth for the property tests and the only exact solver for the NP-hard
// size-constrained problems on tiny inputs. A guard refuses inputs whose
// enumeration count exceeds ExactOptions::max_subsets.
//
// The enumeration is restricted to the vertices of the maximal k-core
// (everything else provably belongs to no k-core subgraph), which loses no
// candidates and makes small-graph enumeration far cheaper.

#ifndef TICL_CORE_EXACT_SEARCH_H_
#define TICL_CORE_EXACT_SEARCH_H_

#include <cstdint>

#include "core/query.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ticl {

class CoreIndex;  // serve/core_index.h

struct ExactOptions {
  /// Hard ceiling on subsets examined; the solver aborts (TICL_CHECK) when
  /// the instance would exceed it rather than silently running for hours.
  std::uint64_t max_subsets = 100'000'000;

  /// Definition 3(3) filter: drop candidates that have an enumerated strict
  /// superset with the same influence value. Matters for plateau
  /// aggregations (min / max), where e.g. every connected k-core around the
  /// minimum vertex shares its value and only the maximal one is a
  /// community. O(candidates^2) subset checks — tiny inputs only.
  bool enforce_maximality = false;

  /// Optional precomputed index for the queried graph; replaces the
  /// initial universe computation without changing the result.
  const CoreIndex* core_index = nullptr;
};

/// Subsets ExactSearch would enumerate for `query` (for TONIC, in its
/// first and largest round), saturating at options.max_subsets + 1.
/// ExactSearch aborts when this exceeds options.max_subsets, so callers
/// serving untrusted input check it first. Preconditions (checked): valid
/// query.
std::uint64_t ExactSubsetCount(const Graph& g, const Query& query,
                               const ExactOptions& options = {});

/// Preconditions (checked): valid query. Works for any aggregation, with or
/// without size constraint (unconstrained enumerates up to the k-core
/// size). TONIC queries greedily re-enumerate after excluding the vertices
/// of each accepted community (optimal per pick, not globally).
SearchResult ExactSearch(const Graph& g, const Query& query,
                         const ExactOptions& options = {});

}  // namespace ticl

#endif  // TICL_CORE_EXACT_SEARCH_H_
