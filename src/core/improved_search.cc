#include "core/improved_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "algo/core_decomposition.h"
#include "algo/kcore_peeler.h"
#include "serve/core_index.h"
#include "util/check.h"
#include "util/timing.h"
#include "util/top_r_list.h"

namespace ticl {

namespace {

/// One retained candidate. `expanded` marks that its single-vertex
/// deletions have been generated; `sequence` provides FIFO order for the
/// ablation mode.
struct PoolEntry {
  Community community;
  bool expanded = false;
  std::uint64_t sequence = 0;
};

/// The bounded candidate pool: at most r entries, worst evicted first.
/// Linear scans are fine — r is small (the paper never exceeds 20).
class CandidatePool {
 public:
  explicit CandidatePool(std::uint32_t r) : capacity_(r) {}

  /// Inserts, possibly evicting the worst entry. Returns false if the
  /// candidate was worse than everything retained (and the pool is full).
  bool Insert(Community c, std::uint64_t sequence) {
    if (entries_.size() < capacity_) {
      entries_.push_back(PoolEntry{std::move(c), false, sequence});
      return true;
    }
    std::size_t worst = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (!Better(entries_[i], entries_[worst])) worst = i;
    }
    const PoolEntry& w = entries_[worst];
    if (!TopRList<int>::Better(c.influence, c.hash, w.community.influence,
                               w.community.hash)) {
      return false;
    }
    entries_[worst] = PoolEntry{std::move(c), false, sequence};
    return true;
  }

  /// f(L_r): the value of the r-th retained candidate, -inf while not full.
  double Threshold() const {
    if (entries_.size() < capacity_) {
      return -std::numeric_limits<double>::infinity();
    }
    double worst = std::numeric_limits<double>::infinity();
    for (const PoolEntry& e : entries_) {
      worst = std::min(worst, e.community.influence);
    }
    return worst;
  }

  /// Index of the next entry to expand (best-first or FIFO), or npos.
  std::size_t NextUnexpanded(bool best_first) const {
    std::size_t pick = kNone;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].expanded) continue;
      if (pick == kNone) {
        pick = i;
        continue;
      }
      if (best_first ? Better(entries_[i], entries_[pick])
                     : entries_[i].sequence < entries_[pick].sequence) {
        pick = i;
      }
    }
    return pick;
  }

  /// Number of retained candidates with value >= bound.
  std::size_t CountAtLeast(double bound) const {
    std::size_t count = 0;
    for (const PoolEntry& e : entries_) {
      if (e.community.influence >= bound) ++count;
    }
    return count;
  }

  PoolEntry& at(std::size_t i) { return entries_[i]; }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  std::vector<Community> TakeSortedDescending() {
    std::sort(entries_.begin(), entries_.end(),
              [](const PoolEntry& a, const PoolEntry& b) {
                return Better(a, b);
              });
    std::vector<Community> out;
    out.reserve(entries_.size());
    for (PoolEntry& e : entries_) out.push_back(std::move(e.community));
    entries_.clear();
    return out;
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

 private:
  static bool Better(const PoolEntry& a, const PoolEntry& b) {
    return TopRList<int>::Better(a.community.influence, a.community.hash,
                                 b.community.influence, b.community.hash);
  }

  std::size_t capacity_;
  std::vector<PoolEntry> entries_;
};

/// O(1) upper bound on f(H \ {v}) for monotone aggregations: the cascade
/// can only shrink the community further, which never raises the value.
/// Every community's value is a fresh floating-point sum over its members,
/// so the child's computed value can exceed the exact difference by the
/// rounding of both sums, at most about |H| ulps of f(H). The allowance
/// covers that; without it a child that ties f(L_r) could be pruned.
/// It is the same for every child of H, so the bound still falls as the
/// removed weight grows.
double ChildValueBound(const AggregationSpec& spec, double parent_value,
                       std::size_t parent_size, Weight removed_weight) {
  const double rounding = static_cast<double>(parent_size + 2) *
                          std::numeric_limits<double>::epsilon() *
                          std::fabs(parent_value);
  switch (spec.kind) {
    case Aggregation::kSum:
      return parent_value - removed_weight + rounding;
    case Aggregation::kSumSurplus:
      return parent_value - removed_weight - spec.alpha + rounding;
    default:
      TICL_CHECK_MSG(false, "ChildValueBound requires a monotone spec");
      return 0.0;
  }
}

SearchResult TopRComponents(const Graph& g, const Query& query,
                            const CoreIndex* core_index) {
  WallTimer timer;
  SearchResult result;
  TopRList<Community> top(query.r);
  for (VertexList& component :
       IndexedKCoreComponents(core_index, g, query.k)) {
    Community c = MakeCommunity(g, std::move(component), query.aggregation);
    ++result.stats.candidates_generated;
    const double influence = c.influence;
    const std::uint64_t hash = c.hash;
    top.Insert(influence, hash, std::move(c));
  }
  for (auto& entry : top.TakeSortedDescending()) {
    result.communities.push_back(std::move(entry.value));
  }
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

SearchResult ImprovedSearch(const Graph& g, const Query& query,
                            const ImprovedOptions& options) {
  TICL_CHECK_MSG(ValidateQuery(query, g).empty(), "invalid query");
  TICL_CHECK_MSG(!query.size_constrained(),
                 "ImprovedSearch solves the size-unconstrained problem only");
  TICL_CHECK_MSG(
      IsMonotoneUnderRemoval(query.aggregation),
      "ImprovedSearch requires a monotone aggregation (sum family)");
  TICL_CHECK(options.epsilon >= 0.0 && options.epsilon < 1.0);
  if (query.non_overlapping) {
    return TopRComponents(g, query, options.core_index);
  }

  WallTimer timer;
  SearchResult result;
  SubsetPeeler peeler(g);
  std::unordered_set<std::uint64_t> seen;
  CandidatePool pool(query.r);
  std::uint64_t sequence = 0;

  // Lines 1-2: seed with the k-core components.
  for (VertexList& component :
       IndexedKCoreComponents(options.core_index, g, query.k)) {
    Community c = MakeCommunity(g, std::move(component), query.aggregation);
    ++result.stats.candidates_generated;
    seen.insert(c.hash);
    pool.Insert(std::move(c), sequence++);
  }

  // Expansion loop (Lines 7-19).
  VertexList parent_members;
  VertexList visit_order;
  for (;;) {
    const std::size_t pick = pool.NextUnexpanded(options.best_first);
    if (pick == CandidatePool::kNone) break;  // exact fixpoint reached

    // Early stop for epsilon > 0: the exact r-th value cannot exceed the
    // best unexpanded candidate's value, so once r retained candidates
    // clear (1 - eps) * f(L_max) the guarantee holds.
    if (options.epsilon > 0.0) {
      double best_unexpanded = pool.at(pick).community.influence;
      if (options.best_first == false) {
        // FIFO picks are not value-ordered; find the true max.
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (!pool.at(i).expanded) {
            best_unexpanded =
                std::max(best_unexpanded, pool.at(i).community.influence);
          }
        }
      }
      const double lb = (1.0 - options.epsilon) * best_unexpanded;
      if (pool.CountAtLeast(lb) >= pool.capacity()) break;
    }

    PoolEntry& entry = pool.at(pick);
    entry.expanded = true;
    const double parent_value = entry.community.influence;
    // Copy: inserting children may evict this very entry from the pool.
    parent_members = entry.community.members;

    std::size_t unexpanded = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (!pool.at(i).expanded) ++unexpanded;
    }
    result.stats.peak_frontier =
        std::max<std::uint64_t>(result.stats.peak_frontier, unexpanded + 1);

    // Visit by ascending weight, ties by ascending id: the Line-13 bound
    // f(H) - w(v) is then non-increasing along the visit while f(L_r) never
    // decreases, so the first pruned member prunes every member after it.
    visit_order = parent_members;
    std::sort(visit_order.begin(), visit_order.end(),
              [&g](VertexId a, VertexId b) {
                const Weight wa = g.weight(a);
                const Weight wb = g.weight(b);
                return wa < wb || (wa == wb && a < b);
              });
    for (std::size_t i = 0; i < visit_order.size(); ++i) {
      const VertexId v = visit_order[i];
      // Line 13 pruning: O(1) bound before the O(n + m) peel.
      const double bound = ChildValueBound(
          query.aggregation, parent_value, visit_order.size(), g.weight(v));
      if (options.enable_bound_pruning && bound < pool.Threshold()) {
        result.stats.candidates_pruned += visit_order.size() - i;
        break;
      }
      ++result.stats.peel_operations;
      for (VertexList& child :
           peeler.RemoveAndSplit(parent_members, v, query.k)) {
        Community c = MakeCommunity(g, std::move(child), query.aggregation);
        if (!seen.insert(c.hash).second) {
          ++result.stats.duplicates_skipped;
          continue;
        }
        ++result.stats.candidates_generated;
        if (!pool.Insert(std::move(c), sequence++)) {
          ++result.stats.candidates_pruned;
        }
      }
    }
  }

  result.communities = pool.TakeSortedDescending();
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ticl
