// Algorithm 4 (paper §V.B): LOCAL SEARCH — the heuristic solver for the
// NP-hard size-constrained problems (and, via a neighbourhood cap, for the
// NP-hard unconstrained ones such as avg).
//
// For every seed vertex surviving in the maximal k-core, a BFS collects the
// s-nearest neighbourhood (expanding to 2+ hops when 1 hop is too small).
// The "Greedy" configuration sorts that neighbourhood by descending weight;
// "Random" keeps plain BFS order. A per-aggregation strategy then carves a
// candidate out of the neighbourhood:
//
//   * SumStrategy (monotone f): start from the whole neighbourhood and pop
//     the tail while the candidate still beats the current r-th result,
//     accepting the first connected k-core found.
//   * AvgStrategy (non-monotone f: avg, min, max, densities): grow the
//     candidate vertex by vertex and test every prefix of size > k; greedy
//     accepts the first qualifying prefix, random keeps the best one.
//
// Cost: every candidate C is tested with IsConnectedKCore
// (algo/connectivity.h) in O(sum over v in C of min(deg v, |C|) * log),
// so a hub in C costs O(|C| log deg), never its whole adjacency list; the
// neighbourhood BFS's visited set grows with the vertices it collects.
// Per-seed work therefore follows the neighbourhood, not the degrees of
// the hubs inside it. A seed with an s_eff-vertex neighbourhood may run up
// to s_eff - k such tests; the candidate's sorted member list the test
// takes is kept across pushes and pops rather than rebuilt per test, so a
// test after one push adds one insertion and a failing test mostly stops
// at its first member below degree k.
//
// Balanced density is -inf unless w(H) > w(V)/2. When even the s_eff
// heaviest maximal-k-core weights sum to at most w(V)/2 (with a rounding
// allowance), no candidate can be finite: the query answers empty at once,
// counting every core vertex as a processed and pruned seed exactly as
// the full scan would.
//
// Documented deviations from the paper's Algorithm 4 listing: the result
// list starts empty rather than holding the oversized k-core components,
// candidates must be connected (Definition 3 requires it), and duplicates
// are filtered.

#ifndef TICL_CORE_LOCAL_SEARCH_H_
#define TICL_CORE_LOCAL_SEARCH_H_

#include <cstdint>

#include "core/query.h"
#include "core/result.h"
#include "graph/graph.h"

namespace ticl {

class CoreIndex;  // serve/core_index.h

/// Seed iteration order. The paper scans vertices in index order; visiting
/// high-weight seeds first is an ablation knob (bench_ablation_seed_order).
enum class SeedOrder {
  kVertexId,
  kDescendingWeight,
};

struct LocalSearchOptions {
  /// True = "Greedy" (sort neighbourhood by descending weight),
  /// false = "Random" (plain BFS order). Paper Figs. 6-13 compare the two.
  bool greedy = true;
  SeedOrder seed_order = SeedOrder::kVertexId;
  /// Neighbourhood size for size-unconstrained queries (where the paper's
  /// s is unbounded); 0 picks max(2 * (k + 1), 32). Ignored when the query
  /// carries a size limit.
  VertexId neighborhood_cap = 0;
  /// Parallel seed expansion — the paper's §VIII future-work direction.
  /// Seeds are strided across workers, each with a private result list and
  /// dedup set; the lists are merged afterwards. Deterministic for a fixed
  /// thread count. Only overlapping (TIC) queries parallelize — TONIC's
  /// vertex removals are inherently sequential, so it runs serially
  /// regardless of this setting.
  unsigned num_threads = 1;
  /// Optional precomputed index for the queried graph; replaces the Line 1
  /// maximal-k-core computation without changing the result.
  const CoreIndex* core_index = nullptr;
};

/// Works for every aggregation, with or without size constraint, TIC or
/// TONIC (accepted TONIC communities are removed from the working graph so
/// later seeds cannot reuse their vertices). Heuristic: results are valid
/// communities but not guaranteed optimal.
SearchResult LocalSearch(const Graph& g, const Query& query,
                         const LocalSearchOptions& options = {});

}  // namespace ticl

#endif  // TICL_CORE_LOCAL_SEARCH_H_
