#include "core/exact_search.h"

#include <algorithm>

#include "algo/connectivity.h"
#include "algo/core_decomposition.h"
#include "algo/kcore_peeler.h"
#include "core/verification.h"
#include "serve/core_index.h"
#include "util/check.h"
#include "util/timing.h"
#include "util/top_r_list.h"

namespace ticl {

namespace {

/// Saturating count of sum_{i=1..max_size} C(n, i), clamped at `cap`.
std::uint64_t CountSubsetsClamped(std::uint64_t n, std::uint64_t max_size,
                                  std::uint64_t cap) {
  std::uint64_t total = 0;
  std::uint64_t binom = 1;  // C(n, 0)
  for (std::uint64_t i = 1; i <= max_size && i <= n; ++i) {
    // binom = C(n, i) with overflow clamping.
    if (binom > cap) return cap + 1;
    binom = binom * (n - i + 1) / i;
    if (binom > cap || cap - total < binom) return cap + 1;
    total += binom;
    if (total > cap) return cap + 1;
  }
  return total;
}

struct EnumerationOutput {
  TopRList<Community> top;
  std::vector<Community> all;  // only filled when enforce_maximality
  std::uint64_t subsets_examined = 0;
  std::uint64_t candidates = 0;
};

void EnumerateRecursive(const Graph& g, const Query& query,
                        const ExactOptions& options,
                        const VertexList& universe, std::size_t start,
                        VertexList* current, EnumerationOutput* out) {
  if (current->size() >= static_cast<std::size_t>(query.k) + 1) {
    ++out->subsets_examined;
    if (IsConnectedKCore(g, *current, query.k)) {
      Community c = MakeCommunity(g, *current, query.aggregation);
      // Undefined values (balanced density with a non-positive denominator
      // evaluates to -inf) are not communities; skip the candidate but keep
      // enumerating its supersets, which may be finite.
      if (c.influence != -std::numeric_limits<double>::infinity()) {
        ++out->candidates;
        if (options.enforce_maximality) {
          out->all.push_back(c);
          TICL_CHECK_MSG(out->all.size() <= 200000,
                         "maximality filtering supports tiny instances only");
        }
        const double influence = c.influence;
        const std::uint64_t hash = c.hash;
        out->top.Insert(influence, hash, std::move(c));
      }
    }
  } else {
    ++out->subsets_examined;
  }
  const std::size_t limit = query.EffectiveSizeLimit(g);
  if (current->size() >= limit) return;
  for (std::size_t i = start; i < universe.size(); ++i) {
    current->push_back(universe[i]);
    EnumerateRecursive(g, query, options, universe, i + 1, current, out);
    current->pop_back();
  }
}

/// Subsets of `universe` the enumeration visits, clamped as above.
std::uint64_t PredictedSubsets(const Graph& g, const Query& query,
                               const ExactOptions& options,
                               const VertexList& universe) {
  return CountSubsetsClamped(
      universe.size(),
      std::min<std::uint64_t>(query.EffectiveSizeLimit(g), universe.size()),
      options.max_subsets);
}

/// Enumerates candidates among `universe` and returns the top-r, applying
/// the optional maximality filter.
std::vector<Community> EnumerateTopR(const Graph& g, const Query& query,
                                     const ExactOptions& options,
                                     const VertexList& universe,
                                     SearchStats* stats) {
  TICL_CHECK_MSG(PredictedSubsets(g, query, options, universe) <=
                     options.max_subsets,
                 "instance too large for exact enumeration; raise "
                 "ExactOptions::max_subsets only if you mean it");

  EnumerationOutput out{TopRList<Community>(query.r), {}, 0, 0};
  VertexList current;
  EnumerateRecursive(g, query, options, universe, 0, &current, &out);
  stats->candidates_generated += out.candidates;

  if (!options.enforce_maximality) {
    std::vector<Community> result;
    for (auto& entry : out.top.TakeSortedDescending()) {
      result.push_back(std::move(entry.value));
    }
    return result;
  }

  // Definition 3(3): drop candidates with an equal-influence strict
  // superset. Sort by (influence desc, size desc); only candidates of equal
  // influence and larger size can invalidate.
  std::vector<Community>& all = out.all;
  std::sort(all.begin(), all.end(), [](const Community& a, const Community& b) {
    if (a.influence != b.influence) return a.influence > b.influence;
    if (a.members.size() != b.members.size()) {
      return a.members.size() > b.members.size();
    }
    return a.hash < b.hash;
  });
  // Two passes: decide maximality first (the checks read earlier
  // candidates, so nothing may be moved out of `all` yet), then collect.
  std::vector<bool> maximal(all.size(), true);
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (all[j].influence != all[i].influence) continue;
      if (all[j].members.size() <= all[i].members.size()) continue;
      if (std::includes(all[j].members.begin(), all[j].members.end(),
                        all[i].members.begin(), all[i].members.end())) {
        maximal[i] = false;
        break;
      }
    }
  }
  TopRList<Community> survivors(query.r);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (maximal[i]) {
      const double influence = all[i].influence;
      const std::uint64_t hash = all[i].hash;
      survivors.Insert(influence, hash, std::move(all[i]));
    } else {
      ++stats->candidates_pruned;
    }
  }
  std::vector<Community> result;
  for (auto& entry : survivors.TakeSortedDescending()) {
    result.push_back(std::move(entry.value));
  }
  return result;
}

}  // namespace

std::uint64_t ExactSubsetCount(const Graph& g, const Query& query,
                               const ExactOptions& options) {
  TICL_CHECK_MSG(ValidateQuery(query, g).empty(), "invalid query");
  // TONIC rounds enumerate shrinking universes, so the first (the whole
  // maximal k-core) is the largest.
  return PredictedSubsets(g, query, options,
                          IndexedMaximalKCore(options.core_index, g, query.k));
}

SearchResult ExactSearch(const Graph& g, const Query& query,
                         const ExactOptions& options) {
  TICL_CHECK_MSG(ValidateQuery(query, g).empty(), "invalid query");
  WallTimer timer;
  SearchResult result;
  SubsetPeeler peeler(g);

  VertexList universe = IndexedMaximalKCore(options.core_index, g, query.k);

  if (!query.non_overlapping) {
    result.communities =
        EnumerateTopR(g, query, options, universe, &result.stats);
  } else {
    // Greedy TONIC: take the best community, exclude its vertices, re-peel
    // the remaining universe, repeat. Optimal per pick.
    Query single = query;
    single.r = 1;
    single.non_overlapping = false;
    for (std::uint32_t round = 0; round < query.r; ++round) {
      if (universe.empty()) break;
      std::vector<Community> best =
          EnumerateTopR(g, single, options, universe, &result.stats);
      if (best.empty()) break;
      Community chosen = std::move(best.front());
      VertexList remaining;
      std::set_difference(universe.begin(), universe.end(),
                          chosen.members.begin(), chosen.members.end(),
                          std::back_inserter(remaining));
      ++result.stats.peel_operations;
      universe = peeler.Peel(remaining, query.k);
      result.communities.push_back(std::move(chosen));
    }
    // Greedy picks are value-sorted by construction except for exotic
    // aggregations (balanced density); normalize ordering.
    std::sort(result.communities.begin(), result.communities.end(),
              [](const Community& a, const Community& b) {
                return TopRList<int>::Better(a.influence, a.hash, b.influence,
                                             b.hash);
              });
  }

  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ticl
