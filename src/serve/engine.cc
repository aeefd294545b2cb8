#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>

#include "algo/core_maintenance.h"
#include "core/search.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "util/check.h"

namespace ticl {

namespace {

/// What the cache's keep rule needs to know about a query's answer.
CacheEntryMeta MetaFor(const Query& query) {
  CacheEntryMeta meta;
  meta.k = query.k;
  // Balanced density is the one aggregation that consults whole-graph
  // state (w(V \ H) via total_weight()); its entries must go whenever any
  // weight moves, at any k.
  meta.total_weight_sensitive =
      query.aggregation.kind == Aggregation::kBalancedDensity;
  return meta;
}

ResultCacheOptions CacheOptionsFor(const EngineOptions& options) {
  ResultCacheOptions cache;
  cache.member_budget = options.cache_member_budget;
  return cache;
}

/// Hands out the result and the bytes of one answer, both aliasing it
/// (the bytes take over `answer`'s reference instead of adding one).
EngineResponse Respond(std::shared_ptr<const Answer> answer, bool cache_hit) {
  EngineResponse response;
  response.result =
      std::shared_ptr<const SearchResult>(answer, &answer->result);
  const std::string* bytes = &answer->communities_json;
  response.communities_json =
      std::shared_ptr<const std::string>(std::move(answer), bytes);
  response.cache_hit = cache_hit;
  return response;
}

}  // namespace

std::string CanonicalQueryKey(const Query& query) {
  // Inactive parameters must not split the key space: alpha only matters
  // under sum-surplus, beta only under weight density.
  const double alpha = query.aggregation.kind == Aggregation::kSumSurplus
                           ? query.aggregation.alpha
                           : 0.0;
  const double beta = query.aggregation.kind == Aggregation::kWeightDensity
                          ? query.aggregation.beta
                          : 0.0;
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "k=%u;r=%u;s=%u;no=%d;f=%d;a=%.17g;b=%.17g", query.k,
                query.r, query.size_limit, query.non_overlapping ? 1 : 0,
                static_cast<int>(query.aggregation.kind), alpha, beta);
  return buffer;
}

QueryEngine::QueryEngine(Graph graph, EngineOptions options)
    : QueryEngine(nullptr, std::move(graph), {}, options) {}

QueryEngine::QueryEngine(std::unique_ptr<MappedSnapshot> mapped,
                         Graph owned_graph,
                         const std::vector<unsigned char>& index_payload,
                         const EngineOptions& options)
    : solve_started_hook_for_test_(options.solve_started_hook_for_test),
      cache_(CacheOptionsFor(options)),
      pool_(options.num_threads) {
  auto state = std::make_shared<ServingState>();
  state->mapped = std::move(mapped);
  state->owned_graph = std::move(owned_graph);
  state->graph = state->mapped != nullptr ? &state->mapped->graph()
                                          : &state->owned_graph;
  TICL_CHECK_MSG(state->graph->has_weights(),
                 "QueryEngine needs a weighted graph (SetWeights first)");
  if (state->mapped != nullptr && state->mapped->has_core_index()) {
    state->index = &state->mapped->core_index();
    state->index_from_snapshot = true;
  } else if (!index_payload.empty()) {
    // Copy-loaded snapshot carrying a persisted index: deserialize it
    // against our own graph copy and skip the decomposition. A section
    // that fails validation (stale or foreign, despite the checksum) is
    // not fatal — fall back to rebuilding from scratch.
    std::string index_error;
    std::unique_ptr<CoreIndex> restored = CoreIndex::Deserialize(
        *state->graph, index_payload.data(), index_payload.size(),
        /*copy_data=*/true, &index_error);
    if (restored != nullptr) {
      state->owned_index = std::move(restored);
      state->index_from_snapshot = true;
    } else {
      state->owned_index = std::make_unique<CoreIndex>(*state->graph);
    }
    state->index = state->owned_index.get();
  } else {
    state->owned_index = std::make_unique<CoreIndex>(*state->graph);
    state->index = state->owned_index.get();
  }
  state_ = std::move(state);
}

std::unique_ptr<QueryEngine> QueryEngine::OpenSnapshot(
    const std::string& path, SnapshotLoadMode mode, EngineOptions options,
    std::string* error) {
  if (mode == SnapshotLoadMode::kMmap) {
    std::unique_ptr<MappedSnapshot> mapped = MappedSnapshot::Open(path, error);
    if (mapped == nullptr) return nullptr;
    if (!mapped->graph().has_weights()) {
      *error = "snapshot: no vertex weights; re-save it from a weighted "
               "graph";
      return nullptr;
    }
    return std::unique_ptr<QueryEngine>(
        new QueryEngine(std::move(mapped), Graph(), {}, options));
  }
  Graph graph;
  std::vector<unsigned char> index_payload;
  if (!LoadSnapshotWithIndex(path, &graph, &index_payload, error)) {
    return nullptr;
  }
  if (!graph.has_weights()) {
    *error = "snapshot: no vertex weights; re-save it from a weighted graph";
    return nullptr;
  }
  return std::unique_ptr<QueryEngine>(
      new QueryEngine(nullptr, std::move(graph), index_payload, options));
}

std::shared_ptr<const QueryEngine::ServingState> QueryEngine::CurrentState()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

const Graph& QueryEngine::graph() const { return *CurrentState()->graph; }

const CoreIndex& QueryEngine::core_index() const {
  return *CurrentState()->index;
}

bool QueryEngine::snapshot_mapped() const {
  return CurrentState()->mapped != nullptr;
}

bool QueryEngine::index_from_snapshot() const {
  return CurrentState()->index_from_snapshot;
}

std::string QueryEngine::Validate(const Query& query) const {
  const std::shared_ptr<const ServingState> state = CurrentState();
  return ValidateQuery(query, *state->graph);
}

EngineResponse QueryEngine::Run(const Query& query) {
  const std::string key = CanonicalQueryKey(query);
  std::shared_ptr<const ServingState> state;
  std::shared_ptr<PendingSolve> pending;
  bool owner = false;
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.queries;
    state = state_;
    generation = generation_;
    if (cache_.enabled()) {
      if (std::shared_ptr<const Answer> cached = cache_.Lookup(key)) {
        ++stats_.cache_hits;
        return Respond(std::move(cached), true);
      }
    }
    pending = cache_.FindPending(key);
    if (pending != nullptr) {
      ++stats_.cache_coalesced;
    } else {
      pending = std::make_shared<PendingSolve>();
      cache_.AddPending(key, pending);
      owner = true;
      // With the cache disabled no answer can ever be cached; that is an
      // `uncacheable` outcome, not a miss — every query must land in
      // exactly one of the four counters.
      if (cache_.enabled()) {
        ++stats_.cache_misses;
      } else {
        ++stats_.cache_uncacheable;
      }
    }
  }
  if (!owner) {
    // Another thread is already solving this exact query (possibly against
    // an older serving state — it was admitted before any swap, so its
    // answer is as valid as ours would have been at arrival time).
    return Respond(pending->future.get(), true);
  }

  std::shared_ptr<Answer> answer;
  try {
    // The test hook lives inside the try so a throwing hook exercises
    // the same retirement path a throwing solver would.
    if (solve_started_hook_for_test_) solve_started_hook_for_test_();
    SolveOptions options;
    options.core_index = state->index;
    answer = std::make_shared<Answer>();
    answer->result = Solve(*state->graph, query, options);
    // Formatted here, once, off any lock: every reply that serves this
    // answer — hits and coalesced waiters included — shares the bytes.
    answer->communities_json = FormatCommunitiesJson(answer->result);
  } catch (...) {
    // Solve normally aborts on contract violations, but allocation (or a
    // future solver) can throw. Retire the pending entry and fail its
    // waiters — leaving it would hang them and poison this key for every
    // later query.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cache_.RemovePending(key, pending);
    }
    pending->promise.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.RemovePending(key, pending);
    // A result computed against a retired generation must not seed the
    // cache: the delta may have changed this very answer (it stays a
    // plain miss — it did answer its caller).
    if (cache_.enabled() && generation == generation_) {
      if (cache_.Insert(key, MetaFor(query), answer) ==
          ResultCache::InsertOutcome::kUncacheable) {
        // Reclassify: this solve's answer can never be cached (its charge
        // alone exceeds the whole budget), which the miss counter claimed
        // optimistically at lookup time.
        --stats_.cache_misses;
        ++stats_.cache_uncacheable;
      }
    }
  }
  pending->promise.set_value(answer);
  return Respond(std::move(answer), false);
}

std::future<EngineResponse> QueryEngine::Submit(const Query& query) {
  auto task = std::make_shared<std::packaged_task<EngineResponse()>>(
      [this, query] { return Run(query); });
  auto future = task->get_future();
  if (!pool_.Submit([task] { (*task)(); })) {
    // Pool already shutting down (engine teardown race): answer inline so
    // the caller's future is still fulfilled instead of aborting.
    (*task)();
  }
  return future;
}

void QueryEngine::Submit(const Query& query,
                         std::function<void(EngineResponse)> done) {
  auto task = [this, query, done = std::move(done)] {
    // An escaped exception would std::terminate the pool worker — and
    // with it the whole serving process — while the caller's in-flight
    // accounting waited forever. Convert to an error response instead;
    // Run() has already retired the pending entry and failed coalesced
    // waiters by the time anything reaches us.
    EngineResponse response;
    try {
      response = Run(query);
    } catch (const std::exception& e) {
      response.error = e.what();
    } catch (...) {
      response.error = "solver failed with a non-standard exception";
    }
    done(std::move(response));
  };
  if (!pool_.Submit(task)) task();
}

bool QueryEngine::ApplyDelta(const GraphDelta& delta, std::string* error) {
  return ApplyDelta(delta, nullptr, error);
}

bool QueryEngine::ApplyDelta(const GraphDelta& delta,
                             const GraphFingerprint* expected_parent,
                             std::string* error) {
  // One delta at a time; queries keep flowing against the current state
  // while the successor is built.
  std::lock_guard<std::mutex> apply_lock(apply_mutex_);
  const std::shared_ptr<const ServingState> old_state = CurrentState();

  // The parent check must live inside the critical section: a caller that
  // verified the fingerprint before reaching this lock may have lost a
  // race to another delta, and applying against the winner's graph would
  // mutate a base this delta was never recorded for.
  if (expected_parent != nullptr &&
      !(*expected_parent == old_state->graph->fingerprint())) {
    *error =
        "delta was recorded against a different parent graph (wrong base "
        "snapshot, wrong chain order, or a concurrent update won the race)";
    return false;
  }

  const std::string problem = ValidateDelta(*old_state->graph, delta);
  if (!problem.empty()) {
    *error = "delta: " + problem;
    return false;
  }

  // Maintain core numbers edge by edge (deletes first — the delta's
  // documented order), then rebuild the CSR backend once and re-bucket
  // the per-level member lists from the maintained numbers.
  CoreMaintainer maintainer(*old_state->graph,
                            old_state->index->core_numbers());
  for (const Edge& e : delta.delete_edges) maintainer.DeleteEdge(e.u, e.v);
  for (const Edge& e : delta.insert_edges) maintainer.InsertEdge(e.u, e.v);

  // Condense the delta to the thresholds the cache's keep rule tests,
  // against the *post-delta* core numbers (sound — see result_cache.h:
  // any level where old and new membership could disagree lies inside the
  // crossed range and is evicted wholesale).
  DeltaImpact impact;
  const AffectedSummary affected = maintainer.Summary();
  impact.any_core_crossed = affected.any();
  impact.crossed_min = affected.min_crossed;
  impact.crossed_max = affected.max_crossed;
  const std::vector<VertexId>& core = maintainer.core_numbers();
  for (const Edge& e : delta.delete_edges) {
    impact.evict_k_le =
        std::max(impact.evict_k_le, std::min(core[e.u], core[e.v]));
  }
  for (const Edge& e : delta.insert_edges) {
    impact.evict_k_le =
        std::max(impact.evict_k_le, std::min(core[e.u], core[e.v]));
  }
  for (const WeightUpdate& w : delta.weight_updates) {
    impact.evict_k_le = std::max(impact.evict_k_le, core[w.vertex]);
    impact.total_weight_changed = true;
  }

  auto next = std::make_shared<ServingState>();
  next->owned_graph = ApplyValidatedDelta(*old_state->graph, delta);
  next->graph = &next->owned_graph;
  next->owned_index = CoreIndex::FromCoreNumbers(next->owned_graph,
                                                 maintainer.TakeCoreNumbers());
  next->index = next->owned_index.get();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = std::move(next);
    ++generation_;
    // In-flight answers describe the old graph: detach the coalescing map
    // (owners still fulfil their waiters, they just no longer seed the
    // new cache — the generation bump blocks that). Cached entries are
    // swept by the keep rule: an entry survives only when the delta
    // provably left its k-level's induced subgraph untouched.
    cache_.ClearPending();
    cache_.InvalidateForDelta(impact);
    ++stats_.deltas_applied;
  }
  return true;
}

bool QueryEngine::ApplyDeltaSnapshotFile(const std::string& path,
                                         std::string* error,
                                         GraphDelta* applied) {
  GraphDelta delta;
  GraphFingerprint parent;
  if (!LoadDeltaSnapshot(path, &delta, &parent, error)) return false;
  // The recorded parent is enforced inside ApplyDelta's critical section,
  // so two callers racing chained deltas cannot both slip past a
  // check-then-apply window.
  if (!ApplyDelta(delta, &parent, error)) {
    *error = path + ": " + *error;
    return false;
  }
  if (applied != nullptr) *applied = std::move(delta);
  return true;
}

EngineStats QueryEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats out = stats_;
  const ResultCacheCounters& cache = cache_.counters();
  out.cache_evictions = cache.evictions;
  out.cache_negative_hits = cache.negative_hits;
  out.cache_partial_kept = cache.partial_kept;
  out.cache_partial_evicted = cache.partial_evicted;
  out.cache_charge = cache_.charge();
  out.cache_bytes = cache_.bytes();
  return out;
}

}  // namespace ticl
