// Delta-aware result cache for the serve layer.
//
// QueryEngine answers each canonicalized (k, r, aggregation) query at most
// once per serving graph; everything after that is a cache question. This
// module owns both halves of that question:
//
//   * the finished-answer store — a size-aware LRU (entries charged by
//     total member count, so a few graph-sized answers cannot blow the
//     memory budget) with explicit negative-result entries
//     (zero-community answers are the cheapest entries there are, and
//     the queries most likely to be repeated verbatim by probing
//     clients). An entry is an Answer: the result together with its
//     formatted "communities" reply bytes, so a hit is served without
//     formatting anything. The bytes are counted (bytes()) but not
//     charged: the budget stays in members, and an entry's bytes are at
//     most about 12 per member on top of the 4 its member ids take;
//   * the in-flight coalescing map — concurrent misses on one key share a
//     single Solve through a PendingSolve future.
//
// The interesting part is invalidation. A GraphDelta does not perturb
// every answer: a query at level k is computed entirely from the induced
// subgraph on the maximal k-core's members plus those members' weights
// (every solver in src/core/ restricts itself to IndexedMaximalKCore with
// deterministic id tie-breaks), so a cached answer provably survives a
// delta when that induced subgraph is bit-identical before and after:
//
//   keep (k, r, agg) iff
//     no vertex crossed the k-threshold        (k-core member set equal),
//     no edited edge has both endpoints at core >= k
//                                              (induced edges equal),
//     no reweighted vertex has core >= k       (member weights equal),
//     and the aggregation does not consult whole-graph state
//                                              (balanced density reads
//                                               w(V); any reweight
//                                               anywhere perturbs it).
//
// DeltaImpact condenses a delta to the four thresholds those tests need
// (built by QueryEngine from CoreMaintainer::Summary() plus the delta's
// edge/weight lists); InvalidateForDelta applies them in one O(entries)
// sweep. Note the rule is deliberately *not* "does the delta intersect
// the cached answer's members": an edit outside every reported community
// can still promote a new community into the top-r, so member
// intersection is unsound — the subgraph-identity rule is the tightest
// sound one expressible per k-level. Anything it cannot prove kept is
// evicted, and both outcomes are counted (partial_kept /
// partial_evicted) so operators can see the rule working.
//
// Thread safety: none. The cache is a data structure, not a service —
// QueryEngine calls every method under its own mutex.

#ifndef TICL_SERVE_RESULT_CACHE_H_
#define TICL_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/result.h"
#include "graph/types.h"

namespace ticl {

struct ResultCacheOptions {
  /// Budget in cached community members (each entry charged its total
  /// member count, floored at 1 so negative entries still cost
  /// something). 0 disables the cache entirely.
  std::size_t member_budget = 1u << 20;
};

/// One finished answer, immutable once built: the result and its
/// FormatCommunitiesJson bytes, formatted once on the thread that solved
/// it and shared by every reply that serves it.
struct Answer {
  SearchResult result;
  std::string communities_json;
};

/// Counters owned by the cache itself; QueryEngine merges them into
/// EngineStats (which adds the hit/miss/coalesced flow counters the
/// engine tracks, since only it sees the full lookup flow).
struct ResultCacheCounters {
  /// Entries pushed out by the LRU budget sweep.
  std::uint64_t evictions = 0;
  /// Hits served from a negative (zero-community) entry.
  std::uint64_t negative_hits = 0;
  /// Partial-invalidation outcomes, cumulative across deltas.
  std::uint64_t partial_kept = 0;
  std::uint64_t partial_evicted = 0;
};

/// What the invalidation rule needs to know about one cached answer.
struct CacheEntryMeta {
  /// The query's k-level.
  VertexId k = 0;
  /// True when the aggregation consults whole-graph state (balanced
  /// density reads w(V \ H) via total_weight()): any reweight anywhere
  /// invalidates such entries regardless of k.
  bool total_weight_sensitive = false;
};

/// A delta condensed to the thresholds the keep rule tests. Built by
/// QueryEngine::ApplyDelta from the maintainer's AffectedSummary plus the
/// delta's own edge/weight lists, evaluated against the *post-delta* core
/// numbers (sound: for any k outside [crossed_min, crossed_max] a
/// vertex's old and new core numbers sit on the same side of k, and
/// levels inside the range are evicted wholesale).
struct DeltaImpact {
  /// Some vertex's net core number changed; levels in
  /// [crossed_min, crossed_max] have a different k-core member set.
  bool any_core_crossed = false;
  VertexId crossed_min = 0;
  VertexId crossed_max = 0;
  /// Highest k whose induced k-core subgraph an edit could have touched:
  /// max over edited edges of min(core(u), core(v)) and over reweighted
  /// vertices of core(v). Entries at k <= this are evicted; 0 (with
  /// queries validated to k >= 1) evicts nothing.
  VertexId evict_k_le = 0;
  /// The delta carries weight updates: total graph weight may have
  /// changed, so total_weight_sensitive entries are evicted at every k.
  bool total_weight_changed = false;

  /// The keep/evict decision for one entry.
  bool Evicts(const CacheEntryMeta& meta) const {
    if (meta.k <= evict_k_le) return true;
    if (any_core_crossed && meta.k >= crossed_min && meta.k <= crossed_max) {
      return true;
    }
    return total_weight_changed && meta.total_weight_sensitive;
  }
};

/// A cache miss in flight: later arrivals for the same key wait on the
/// future instead of re-running Solve.
struct PendingSolve {
  std::promise<std::shared_ptr<const Answer>> promise;
  std::shared_future<std::shared_ptr<const Answer>> future =
      promise.get_future().share();
};

class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// False when member_budget is 0 — callers should then skip Lookup and
  /// Insert and account the query as uncacheable.
  bool enabled() const { return member_budget_ > 0; }

  /// Resident entry for `key`, bumped to MRU — or nullptr on a miss.
  std::shared_ptr<const Answer> Lookup(const std::string& key);

  enum class InsertOutcome {
    kInserted,
    /// The key is already resident (racing path won); incumbent kept.
    kDuplicate,
    /// The result's charge alone exceeds the whole budget: caching it
    /// would evict everything and still not fit.
    kUncacheable,
  };

  /// Inserts and runs the LRU budget sweep. `answer` must not be null
  /// (a negative answer is an empty result, not a null one).
  InsertOutcome Insert(const std::string& key, const CacheEntryMeta& meta,
                       std::shared_ptr<const Answer> answer);

  /// Delta-aware sweep: evicts exactly the entries impact.Evicts() says a
  /// delta could have changed, counts both outcomes.
  void InvalidateForDelta(const DeltaImpact& impact);

  // -- In-flight coalescing map ------------------------------------------
  // (Lives here so the whole per-key lifecycle — pending, resident,
  // invalidated — is one subsystem; the engine still drives the flow.)

  /// The pending solve another caller owns for `key`, or nullptr.
  std::shared_ptr<PendingSolve> FindPending(const std::string& key) const;

  /// Registers `pending` as the in-flight solve for `key` (must be
  /// vacant).
  void AddPending(const std::string& key,
                  std::shared_ptr<PendingSolve> pending);

  /// Retires `key`'s pending entry iff it still is `pending` (a delta may
  /// have detached the map in between).
  void RemovePending(const std::string& key,
                     const std::shared_ptr<PendingSolve>& pending);

  /// Detaches every in-flight entry (owners still fulfil their waiters;
  /// they just no longer represent this cache's keys).
  void ClearPending();

  /// Current total charge (member count) of resident entries.
  std::size_t charge() const { return charge_; }

  /// Formatted "communities" bytes held by resident entries (not
  /// charged against the budget; reported so the memory they take is
  /// visible).
  std::size_t bytes() const { return bytes_; }

  /// Resident entry count.
  std::size_t size() const { return map_.size(); }

  const ResultCacheCounters& counters() const { return counters_; }

 private:
  struct Entry {
    std::string key;
    CacheEntryMeta meta;
    std::shared_ptr<const Answer> answer;
    std::size_t charge = 0;
  };

  void EraseEntry(std::list<Entry>::iterator it);

  std::size_t member_budget_;

  /// MRU-first recency list; the map points into it.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> map_;
  std::unordered_map<std::string, std::shared_ptr<PendingSolve>> pending_;
  std::size_t charge_ = 0;
  std::size_t bytes_ = 0;
  ResultCacheCounters counters_;
};

}  // namespace ticl

#endif  // TICL_SERVE_RESULT_CACHE_H_
