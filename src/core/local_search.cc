#include "core/local_search.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <ranges>
#include <thread>
#include <unordered_set>

#include "algo/connectivity.h"
#include "algo/core_decomposition.h"
#include "serve/core_index.h"
#include "util/check.h"
#include "util/timing.h"
#include "util/top_r_list.h"

namespace ticl {

namespace {

/// Candidate prefix evaluator: keeps the running summary of the current
/// candidate C (a prefix of the neighbourhood order) so f(C) is O(1) to
/// query as vertices are appended or popped from the back.
class PrefixEvaluator {
 public:
  PrefixEvaluator(const Graph& g, const AggregationSpec& spec)
      : g_(&g), spec_(spec) {}

  void Clear() {
    stack_.clear();
    sorted_.clear();
  }

  void Push(VertexId v) {
    Frame frame;
    frame.vertex = v;
    const Weight w = g_->weight(v);
    if (stack_.empty()) {
      frame.summary = CommunitySummary{w, 1, w, w};
    } else {
      frame.summary = stack_.back().summary;
      frame.summary.weight_sum += w;
      frame.summary.size += 1;
      frame.summary.min_weight = std::min(frame.summary.min_weight, w);
      frame.summary.max_weight = std::max(frame.summary.max_weight, w);
    }
    stack_.push_back(frame);
  }

  void Pop() {
    // The sorted view holds the first sorted_.size() frames; a popped
    // frame among them leaves it too.
    if (sorted_.size() == stack_.size()) {
      sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(),
                                     stack_.back().vertex));
    }
    stack_.pop_back();
  }

  std::size_t size() const { return stack_.size(); }

  double Value() const {
    if (stack_.empty()) return -std::numeric_limits<double>::infinity();
    return EvaluateAggregation(spec_, stack_.back().summary,
                               g_->total_weight());
  }

  /// Current candidate members in push order.
  VertexList Members() const {
    VertexList out;
    out.reserve(stack_.size());
    for (const Frame& f : stack_) out.push_back(f.vertex);
    return out;
  }

  /// Current candidate members sorted ascending, the form IsConnectedKCore
  /// (the "C is a connected k-core" test of the strategy procedures) takes.
  /// The view is kept across Push/Pop and caught up here: the frames
  /// pushed since the last call are sorted and merged in, so a test after
  /// one push costs one insertion, and the first test of a large prefix
  /// one sort.
  const VertexList& SortedMembers() {
    const std::size_t synced = sorted_.size();
    if (synced + 1 == stack_.size()) {
      const VertexId v = stack_.back().vertex;
      sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), v), v);
    } else if (synced < stack_.size()) {
      for (std::size_t i = synced; i < stack_.size(); ++i) {
        sorted_.push_back(stack_[i].vertex);
      }
      const auto middle =
          sorted_.begin() + static_cast<std::ptrdiff_t>(synced);
      std::sort(middle, sorted_.end());
      std::inplace_merge(sorted_.begin(), middle, sorted_.end());
    }
    return sorted_;
  }

 private:
  struct Frame {
    VertexId vertex;
    CommunitySummary summary;
  };
  const Graph* g_;
  AggregationSpec spec_;
  std::vector<Frame> stack_;
  VertexList sorted_;  // stack_[0, sorted_.size()) members, ascending
};

/// Shared accept-side state for both strategies.
struct Acceptor {
  const Graph* g;
  const Query* query;
  std::vector<Community> accepted;        // TONIC mode
  TopRList<Community> top;                // TIC (overlap) mode
  TopRList<std::uint64_t> tonic_values;   // TONIC threshold tracking
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint8_t>* removed;     // TONIC vertex lock-out
  SearchStats* stats;

  Acceptor(const Graph& graph, const Query& q,
           std::vector<std::uint8_t>* removed_flags, SearchStats* s)
      : g(&graph),
        query(&q),
        top(q.r),
        tonic_values(q.r),
        removed(removed_flags),
        stats(s) {}

  /// f(L_r): current acceptance threshold.
  double Threshold() const {
    return query->non_overlapping ? tonic_values.Threshold()
                                  : top.Threshold();
  }

  /// Installs a validated candidate.
  void Accept(VertexList members_in_order) {
    Community c = MakeCommunity(*g, std::move(members_in_order),
                                query->aggregation);
    if (!seen.insert(c.hash).second) {
      ++stats->duplicates_skipped;
      return;
    }
    ++stats->candidates_generated;
    if (query->non_overlapping) {
      for (const VertexId v : c.members) (*removed)[v] = 1;
      tonic_values.Insert(c.influence, c.hash, c.hash);
      accepted.push_back(std::move(c));
    } else {
      const double influence = c.influence;
      const std::uint64_t hash = c.hash;
      top.Insert(influence, hash, std::move(c));
    }
  }

  std::vector<Community> TakeTopR() {
    std::vector<Community> out;
    if (query->non_overlapping) {
      std::sort(accepted.begin(), accepted.end(),
                [](const Community& a, const Community& b) {
                  return TopRList<int>::Better(a.influence, a.hash,
                                               b.influence, b.hash);
                });
      if (accepted.size() > query->r) accepted.resize(query->r);
      out = std::move(accepted);
    } else {
      for (auto& entry : top.TakeSortedDescending()) {
        out.push_back(std::move(entry.value));
      }
    }
    return out;
  }
};

/// Procedure SumStrategy: pop the tail while the candidate can still beat
/// the threshold; accept the first connected k-core.
void RunSumStrategy(const Graph& g, const Query& query,
                    const VertexList& neighbourhood, PrefixEvaluator* eval,
                    Acceptor* acceptor) {
  eval->Clear();
  for (const VertexId v : neighbourhood) eval->Push(v);
  while (eval->size() > query.k && eval->Value() > acceptor->Threshold()) {
    ++acceptor->stats->peel_operations;
    if (IsConnectedKCore(g, eval->SortedMembers(), query.k)) {
      acceptor->Accept(eval->Members());
      return;
    }
    eval->Pop();
  }
  ++acceptor->stats->candidates_pruned;
}

/// Procedure AvgStrategy: test every prefix; greedy accepts the first
/// qualifying one, random keeps the best.
void RunAvgStrategy(const Graph& g, const Query& query, bool greedy,
                    const VertexList& neighbourhood, PrefixEvaluator* eval,
                    Acceptor* acceptor) {
  eval->Clear();
  VertexList best;
  double best_value = -std::numeric_limits<double>::infinity();
  for (const VertexId v : neighbourhood) {
    eval->Push(v);
    if (eval->size() <= query.k) continue;
    const double value = eval->Value();
    if (value <= acceptor->Threshold()) continue;
    if (!greedy && value <= best_value) continue;
    ++acceptor->stats->peel_operations;
    if (!IsConnectedKCore(g, eval->SortedMembers(), query.k)) continue;
    if (greedy) {
      acceptor->Accept(eval->Members());
      return;
    }
    best = eval->Members();
    best_value = value;
  }
  if (!best.empty()) {
    acceptor->Accept(std::move(best));
  } else {
    ++acceptor->stats->candidates_pruned;
  }
}

/// Balanced density w(H) / (2 w(H) - w(V)) is -inf unless w(H) > w(V)/2.
/// True when no candidate of at most `s_eff` members of `core` can get
/// there: even the s_eff heaviest core weights sum to at most w(V)/2. A
/// prefix sum of m weights rounds up by at most about m ulps, which the
/// (m + 2)-ulp allowance covers (as in ImprovedSearch's child bound).
bool BalancedDensityOutOfReach(const Graph& g, const VertexList& core,
                               VertexId s_eff) {
  std::vector<Weight> heaviest(std::min<std::size_t>(s_eff, core.size()));
  std::ranges::partial_sort_copy(
      core | std::views::transform([&g](VertexId v) { return g.weight(v); }),
      heaviest, std::greater<>());
  const double sum = std::accumulate(heaviest.begin(), heaviest.end(), 0.0);
  const double rounding = static_cast<double>(heaviest.size() + 2) *
                          std::numeric_limits<double>::epsilon() * sum;
  return 2.0 * (sum + rounding) <= g.total_weight();
}

}  // namespace

SearchResult LocalSearch(const Graph& g, const Query& query,
                         const LocalSearchOptions& options) {
  TICL_CHECK_MSG(ValidateQuery(query, g).empty(), "invalid query");
  WallTimer timer;
  SearchResult result;

  const VertexId s_eff =
      query.size_constrained()
          ? query.size_limit
          : (options.neighborhood_cap != 0
                 ? options.neighborhood_cap
                 : std::max<VertexId>(2 * (query.k + 1), 32));
  TICL_CHECK_MSG(s_eff >= query.k + 1,
                 "neighbourhood cap below the smallest possible k-core");

  // Line 1: restrict to the maximal k-core.
  const VertexList core =
      IndexedMaximalKCore(options.core_index, g, query.k);
  // Balanced density out of reach: the full scan would give every seed a
  // neighbourhood of at least k + 1 members (a k-core component has k + 1
  // vertices, and s_eff >= k + 1), see only -inf values and prune it.
  if (query.aggregation.kind == Aggregation::kBalancedDensity &&
      BalancedDensityOutOfReach(g, core, s_eff)) {
    result.stats.seeds_processed = core.size();
    result.stats.candidates_pruned = core.size();
    result.stats.elapsed_seconds = timer.ElapsedSeconds();
    return result;
  }
  std::vector<std::uint8_t> in_core(g.num_vertices(), 0);
  for (const VertexId v : core) in_core[v] = 1;
  std::vector<std::uint8_t> removed(g.num_vertices(), 0);

  VertexList seeds = core;
  if (options.seed_order == SeedOrder::kDescendingWeight) {
    std::sort(seeds.begin(), seeds.end(), [&g](VertexId a, VertexId b) {
      if (g.weight(a) != g.weight(b)) return g.weight(a) > g.weight(b);
      return a < b;
    });
  }

  const bool monotone = IsMonotoneUnderRemoval(query.aggregation);
  // TONIC's vertex removals couple the seeds; it always runs serially.
  const unsigned num_threads =
      (query.non_overlapping || options.num_threads <= 1)
          ? 1U
          : options.num_threads;

  // Processes seeds[first], seeds[first + stride], ... into `acceptor`.
  const auto run_seed_range = [&](std::size_t first, std::size_t stride,
                                  Acceptor* acceptor, SearchStats* stats) {
    PrefixEvaluator eval(g, query.aggregation);
    const auto allowed = [&](VertexId v) {
      return in_core[v] != 0 && removed[v] == 0;
    };
    for (std::size_t i = first; i < seeds.size(); i += stride) {
      const VertexId seed = seeds[i];
      if (removed[seed] != 0) continue;  // consumed by a TONIC acceptance
      ++stats->seeds_processed;
      // Line 4: the s-nearest neighbourhood of the seed.
      VertexList neighbourhood =
          CollectNearestNeighbors(g, seed, s_eff, allowed);
      if (neighbourhood.size() < static_cast<std::size_t>(query.k) + 1) {
        continue;
      }
      // Lines 5-6: greedy sorts by descending influence (ties by id so
      // runs are reproducible).
      if (options.greedy) {
        std::sort(neighbourhood.begin(), neighbourhood.end(),
                  [&g](VertexId a, VertexId b) {
                    if (g.weight(a) != g.weight(b)) {
                      return g.weight(a) > g.weight(b);
                    }
                    return a < b;
                  });
      }
      // Line 7: per-aggregation strategy.
      if (monotone) {
        RunSumStrategy(g, query, neighbourhood, &eval, acceptor);
      } else {
        RunAvgStrategy(g, query, options.greedy, neighbourhood, &eval,
                       acceptor);
      }
    }
  };

  if (num_threads == 1) {
    Acceptor acceptor(g, query, &removed, &result.stats);
    run_seed_range(0, 1, &acceptor, &result.stats);
    result.communities = acceptor.TakeTopR();
  } else {
    // Parallel seed expansion (paper §VIII): workers own disjoint strided
    // seed ranges, private result lists and dedup sets; nothing shared is
    // written (`removed` stays all-zero in overlap mode). Merging the
    // per-worker top-r lists with global dedup is deterministic for a
    // fixed thread count.
    std::vector<SearchStats> worker_stats(num_threads);
    std::vector<std::unique_ptr<Acceptor>> acceptors;
    acceptors.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
      acceptors.push_back(
          std::make_unique<Acceptor>(g, query, &removed, &worker_stats[t]));
    }
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
      workers.emplace_back(run_seed_range, t, num_threads,
                           acceptors[t].get(), &worker_stats[t]);
    }
    for (std::thread& worker : workers) worker.join();

    TopRList<Community> merged(query.r);
    std::unordered_set<std::uint64_t> merged_seen;
    for (unsigned t = 0; t < num_threads; ++t) {
      for (Community& c : acceptors[t]->TakeTopR()) {
        if (!merged_seen.insert(c.hash).second) continue;
        const double influence = c.influence;
        const std::uint64_t hash = c.hash;
        merged.Insert(influence, hash, std::move(c));
      }
      result.stats.seeds_processed += worker_stats[t].seeds_processed;
      result.stats.candidates_generated +=
          worker_stats[t].candidates_generated;
      result.stats.candidates_pruned += worker_stats[t].candidates_pruned;
      result.stats.duplicates_skipped += worker_stats[t].duplicates_skipped;
      result.stats.peel_operations += worker_stats[t].peel_operations;
    }
    for (auto& entry : merged.TakeSortedDescending()) {
      result.communities.push_back(std::move(entry.value));
    }
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ticl
