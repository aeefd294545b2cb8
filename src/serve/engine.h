// QueryEngine: the index-and-serve layer over Solve().
//
// One engine serves one weighted graph plus the CoreIndex for it, an LRU
// cache of finished results keyed on the canonicalized query, and a fixed
// thread pool. The graph comes from one of two places:
//
//   QueryEngine(graph, options)       — takes ownership of a built graph
//                                       and runs the decomposition itself.
//   QueryEngine::OpenSnapshot(...)    — serves a snapshot file. In kMmap
//                                       mode the CSR arrays, weights and
//                                       (when persisted) the core index
//                                       are used straight from the
//                                       mapping: start-up performs no
//                                       copy of the graph and, with a
//                                       persisted index, no decomposition.
//
// The served graph is immutable between updates, but the engine itself is
// dynamic: ApplyDelta() takes a GraphDelta (edge inserts/deletes, weight
// updates), rebuilds the CSR backend, maintains the core index with the
// order-based algorithm (O(affected subgraph), not a fresh O(n + m)
// decomposition), invalidates the result cache *partially* — only entries
// whose k-level the delta could have perturbed are dropped (see
// serve/result_cache.h for the keep rule and its soundness argument) —
// and atomically swaps the serving state. Queries running concurrently
// finish against the state they started with — each query pins a shared
// snapshot of (graph, index), so a swap never pulls memory out from under
// a solver; the old state is freed when its last query completes.
//
// Callers either Run() synchronously (the calling thread does the graph
// work) or Submit() to the pool and collect a future. Either way the
// answer is exactly what a direct Solve(graph, query) (kAuto) would
// return — the index only removes the per-query re-peel, it never changes
// the candidate stream — which the serve tests assert result-for-result.
// Concurrent misses on the same canonical key are coalesced: the first
// runs Solve, the rest block on its pending future instead of repeating
// seconds of graph work.
//
// Every answer is formatted once, on the thread that solved it: the
// cache entry (an Answer, see serve/result_cache.h) holds the result and
// its "communities" reply bytes side by side, so a hit hands both out
// without re-running the formatter over a possibly graph-sized result.
//
// Thread safety: every public method is safe to call concurrently.
// Results and their bytes are handed out as shared_ptr<const ...> into
// one immutable Answer; cached entries are shared, never copied per hit.
// References returned by graph() / core_index() stay valid until the
// *next* ApplyDelta, not forever — callers that interleave queries with
// updates should finish reading before applying.

#ifndef TICL_SERVE_ENGINE_H_
#define TICL_SERVE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/result.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "serve/core_index.h"
#include "serve/mapped_snapshot.h"
#include "serve/result_cache.h"
#include "serve/thread_pool.h"

namespace ticl {

struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency.
  unsigned num_threads = 0;
  /// LRU result-cache budget, measured in cached community members: each
  /// entry is charged the total member count of its result (minimum 1, so
  /// empty results still cost something). Size-aware accounting, because
  /// results vary from a handful of ids to graph-sized communities — an
  /// entry-count cap would let a few huge results blow the memory budget.
  /// A single result larger than the whole budget is not cached at all
  /// (counted in EngineStats::cache_uncacheable). 0 disables caching.
  /// An entry also holds its formatted reply bytes (cache_bytes), which
  /// the budget does not charge.
  std::size_t cache_member_budget = 1u << 20;
  /// Test seam: when set, invoked on the solving thread right before a
  /// cache-miss Solve() runs. Lets the dedup tests hold a solve open
  /// deterministically. Never set this in production.
  std::function<void()> solve_started_hook_for_test;
};

struct EngineStats {
  /// Every query lands in exactly one of cache_hits, cache_misses,
  /// cache_coalesced or cache_uncacheable:
  ///   hits        served from a resident entry (negative ones included),
  ///   coalesced   waited on another caller's in-flight solve,
  ///   misses      ran Solve and the answer was cacheable (a result
  ///               computed against a just-retired serving state stays a
  ///               miss — it answered, it just may not seed the cache),
  ///   uncacheable ran Solve but the answer could never be cached: the
  ///               cache is disabled, or the result's member charge alone
  ///               exceeds the whole budget.
  /// cache_hits + cache_misses + cache_coalesced + cache_uncacheable
  /// == queries; the engine tests assert this after mixed workloads.
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_coalesced = 0;
  std::uint64_t cache_uncacheable = 0;
  /// Entries pushed out by the LRU budget sweep.
  std::uint64_t cache_evictions = 0;
  /// Hits served from a negative (zero-community) entry — a subset of
  /// cache_hits.
  std::uint64_t cache_negative_hits = 0;
  /// Partial-invalidation outcomes across all deltas: entries a delta
  /// provably could not have changed (kept, still servable) vs entries
  /// evicted because the keep rule could not prove them safe.
  std::uint64_t cache_partial_kept = 0;
  std::uint64_t cache_partial_evicted = 0;
  /// Current total charge (member count) of resident cache entries.
  std::uint64_t cache_charge = 0;
  /// Formatted "communities" reply bytes held by resident cache entries:
  /// memory beside cache_charge's member ids that the budget does not
  /// count (up to about 12 bytes per member).
  std::uint64_t cache_bytes = 0;
  /// Completed ApplyDelta() calls.
  std::uint64_t deltas_applied = 0;
};

/// One answered query. `result` and `communities_json` point into one
/// immutable Answer shared with the cache: the result and its
/// FormatCommunitiesJson bytes, formatted once when it was solved.
/// Reply writers pass the bytes to FormatResultLine instead of
/// re-formatting the result. `cache_hit` is true when no Solve ran for
/// this call (a resident entry or a coalesced in-flight miss served
/// it). `error` is only ever non-empty on the callback Submit path: it
/// carries the message of an exception Run() threw (both pointers are
/// null then). The future/Run paths propagate exceptions instead.
struct EngineResponse {
  std::shared_ptr<const SearchResult> result;
  std::shared_ptr<const std::string> communities_json;
  bool cache_hit = false;
  std::string error;
};

/// How OpenSnapshot materializes the file.
enum class SnapshotLoadMode {
  /// Copy the sections into owned heap arrays (accepts v1 and v2 files).
  kCopy,
  /// Zero-copy mmap view (requires a v2 file; start-up is O(1) copies).
  kMmap,
};

/// Canonical cache key: two queries map to the same key iff Solve() treats
/// them identically (inactive aggregation parameters are normalized away,
/// e.g. alpha is only part of the key under sum-surplus). Exposed for the
/// tests and for external sharding layers that need a stable query hash.
std::string CanonicalQueryKey(const Query& query);

class QueryEngine {
 public:
  /// Takes ownership of the (weighted) graph and builds the core index.
  explicit QueryEngine(Graph graph, EngineOptions options = {});

  /// Serves a snapshot file. Uses the persisted core index when the
  /// snapshot carries one — both modes skip the decomposition then (kMmap
  /// views it in place, kCopy deserializes a copy); it is rebuilt from
  /// scratch only for index-less files. Returns nullptr and sets *error
  /// when the file is unreadable, invalid or has no weights.
  static std::unique_ptr<QueryEngine> OpenSnapshot(const std::string& path,
                                                   SnapshotLoadMode mode,
                                                   EngineOptions options,
                                                   std::string* error);

  /// Current serving graph / index. Valid until the next ApplyDelta.
  const Graph& graph() const;
  const CoreIndex& core_index() const;
  unsigned num_threads() const { return pool_.num_threads(); }

  /// True while the serving graph is a zero-copy view over a mapped
  /// snapshot (ApplyDelta rebuilds into heap arrays, clearing this).
  bool snapshot_mapped() const;

  /// True when the serving core index was loaded from the snapshot
  /// instead of being recomputed at start-up (cleared by ApplyDelta).
  bool index_from_snapshot() const;

  /// ValidateQuery against the engine's graph ("" = fine). Callers should
  /// gate on this; Run/Submit TICL_CHECK-abort on invalid queries just
  /// like Solve().
  std::string Validate(const Query& query) const;

  /// Answers on the calling thread (cache -> coalesce -> indexed Solve
  /// and format -> cache fill).
  EngineResponse Run(const Query& query);

  /// Queues the query on the pool. During teardown, when the pool no
  /// longer accepts work, the query runs inline on the calling thread
  /// instead of crashing; the returned future is valid either way.
  std::future<EngineResponse> Submit(const Query& query);

  /// Callback form for event-driven front ends (futures cannot be polled
  /// by an epoll loop): queues the query and invokes `done(response)` on
  /// the worker thread that answered it — or inline on the calling
  /// thread when the pool is already shutting down. `done` is invoked
  /// exactly once even when the solve throws (the exception is caught
  /// and reported via EngineResponse::error with a null result), so a
  /// caller counting in-flight work never leaks a slot. `done` itself
  /// must not throw and should stay cheap; it runs on a pool worker.
  void Submit(const Query& query, std::function<void(EngineResponse)> done);

  /// Applies a delta to the serving graph: validates it against the
  /// current graph, rebuilds the CSR backend, maintains the CoreIndex
  /// incrementally (order-based, O(affected subgraph)), detaches the
  /// in-flight coalescing map, evicts exactly the cache entries the
  /// delta could have changed (ResultCache::InvalidateForDelta's keep
  /// rule), and atomically swaps the serving state. In-flight queries
  /// complete against the pre-delta state; queries arriving after the
  /// swap see the new graph.
  /// Returns false and sets *error when the delta does not apply cleanly
  /// (the serving state is then untouched). Concurrent ApplyDelta calls
  /// are serialized.
  ///
  /// `expected_parent`, when non-null, is re-verified against the serving
  /// graph *inside* the critical section: two callers racing chained
  /// deltas cannot both pass an outside check and have the loser apply
  /// against a base it never saw — the loser fails with a parent
  /// mismatch instead.
  bool ApplyDelta(const GraphDelta& delta, std::string* error);
  bool ApplyDelta(const GraphDelta& delta,
                  const GraphFingerprint* expected_parent,
                  std::string* error);

  /// Loads a delta snapshot file and ApplyDelta()s it with the recorded
  /// parent fingerprint enforced inside the critical section (a
  /// mis-ordered, foreign, or raced delta fails cleanly, before any
  /// mutation). One shared path for start-up --delta chains and the
  /// network server's live apply_delta admin command. On success
  /// *applied (when non-null) receives the delta for reporting.
  bool ApplyDeltaSnapshotFile(const std::string& path, std::string* error,
                              GraphDelta* applied = nullptr);

  /// Cumulative counters.
  EngineStats stats() const;

 private:
  /// Everything a query needs, pinned for its whole execution. Swapped
  /// wholesale by ApplyDelta; retired states are freed by the last query
  /// still holding them.
  struct ServingState {
    std::unique_ptr<MappedSnapshot> mapped;  // null unless mmap-backed
    Graph owned_graph;                       // empty when mapped
    std::unique_ptr<const CoreIndex> owned_index;  // null when mapped w/ idx
    const Graph* graph = nullptr;
    const CoreIndex* index = nullptr;
    bool index_from_snapshot = false;
  };

  QueryEngine(std::unique_ptr<MappedSnapshot> mapped, Graph owned_graph,
              const std::vector<unsigned char>& index_payload,
              const EngineOptions& options);

  std::shared_ptr<const ServingState> CurrentState() const;

  std::function<void()> solve_started_hook_for_test_;

  mutable std::mutex mutex_;
  std::shared_ptr<const ServingState> state_;  // guarded by mutex_
  /// Bumped by every ApplyDelta; results computed under an older
  /// generation are not inserted into the cache — the entries that
  /// survived the partial sweep were *proved* unchanged, while a stale
  /// in-flight result carries no such proof.
  std::uint64_t generation_ = 0;
  /// Finished results + in-flight coalescing map; guarded by mutex_ (the
  /// cache itself is deliberately unsynchronized).
  ResultCache cache_;
  EngineStats stats_;

  /// Serializes ApplyDelta callers (mutex_ alone can't: the rebuild runs
  /// outside it so queries keep flowing).
  std::mutex apply_mutex_;

  ThreadPool pool_;  // declared last: workers must die before state above
};

}  // namespace ticl

#endif  // TICL_SERVE_ENGINE_H_
