// Unit tests for the delta-aware result cache: LRU/budget mechanics, the
// DeltaImpact keep rule, and the coalescing map. The end-to-end behaviour
// (does the engine serve *correct* answers from kept entries?) is owned
// by the churn oracle in engine_test.cc.

#include "serve/result_cache.h"

#include <atomic>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "serve/protocol.h"

namespace ticl {
namespace {

std::shared_ptr<const Answer> MakeResult(
    std::initializer_list<std::size_t> community_sizes) {
  auto answer = std::make_shared<Answer>();
  VertexId next = 0;
  for (const std::size_t size : community_sizes) {
    Community c;
    for (std::size_t i = 0; i < size; ++i) c.members.push_back(next++);
    c.influence = static_cast<double>(size);
    answer->result.communities.push_back(std::move(c));
  }
  answer->communities_json = FormatCommunitiesJson(answer->result);
  return answer;
}

CacheEntryMeta Meta(VertexId k, bool total_weight_sensitive = false) {
  return CacheEntryMeta{k, total_weight_sensitive};
}

TEST(ResultCacheTest, LookupMissInsertHit) {
  ResultCache cache(ResultCacheOptions{});
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  const auto result = MakeResult({3});
  EXPECT_EQ(cache.Insert("a", Meta(2), result),
            ResultCache::InsertOutcome::kInserted);
  EXPECT_EQ(cache.Lookup("a"), result);
  EXPECT_EQ(cache.charge(), 3u);
}

TEST(ResultCacheTest, DisabledWhenBudgetZero) {
  ResultCacheOptions options;
  options.member_budget = 0;
  ResultCache cache(options);
  EXPECT_FALSE(cache.enabled());
}

TEST(ResultCacheTest, DuplicateKeepsIncumbent) {
  ResultCache cache(ResultCacheOptions{});
  const auto first = MakeResult({2});
  const auto second = MakeResult({5});
  EXPECT_EQ(cache.Insert("a", Meta(2), first),
            ResultCache::InsertOutcome::kInserted);
  EXPECT_EQ(cache.Insert("a", Meta(2), second),
            ResultCache::InsertOutcome::kDuplicate);
  EXPECT_EQ(cache.Lookup("a"), first);
}

TEST(ResultCacheTest, OversizedResultIsUncacheable) {
  ResultCacheOptions options;
  options.member_budget = 4;
  ResultCache cache(options);
  EXPECT_EQ(cache.Insert("big", Meta(2), MakeResult({5})),
            ResultCache::InsertOutcome::kUncacheable);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.charge(), 0u);
}

TEST(ResultCacheTest, LruEvictsOldestFirstBySize) {
  ResultCacheOptions options;
  options.member_budget = 10;
  ResultCache cache(options);
  cache.Insert("a", Meta(2), MakeResult({4}));
  cache.Insert("b", Meta(2), MakeResult({4}));
  EXPECT_NE(cache.Lookup("a"), nullptr);  // bump a to MRU
  cache.Insert("c", Meta(2), MakeResult({4}));  // 12 > 10: evict b
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_LE(cache.charge(), 10u);
}

TEST(ResultCacheTest, BytesFollowResidentEntries) {
  ResultCacheOptions options;
  options.member_budget = 10;
  ResultCache cache(options);
  EXPECT_EQ(cache.bytes(), 0u);
  const auto a = MakeResult({4});
  const auto b = MakeResult({4});
  const auto c = MakeResult({2});
  cache.Insert("a", Meta(2), a);
  cache.Insert("b", Meta(3), b);
  EXPECT_EQ(cache.bytes(),
            a->communities_json.size() + b->communities_json.size());
  cache.Insert("c", Meta(4), c);  // 10 members: fits
  cache.Insert("d", Meta(5), MakeResult({3}));  // 13 > 10: evicts a
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  const std::size_t before = cache.bytes();
  EXPECT_EQ(before, b->communities_json.size() + c->communities_json.size() +
                        MakeResult({3})->communities_json.size());

  DeltaImpact impact;
  impact.evict_k_le = 3;  // evicts b
  cache.InvalidateForDelta(impact);
  EXPECT_EQ(cache.bytes(), before - b->communities_json.size());
  // Uncacheable and duplicate inserts hold no bytes.
  cache.Insert("c", Meta(4), MakeResult({1}));
  cache.Insert("huge", Meta(9), MakeResult({11}));
  EXPECT_EQ(cache.bytes(), before - b->communities_json.size());
}

TEST(ResultCacheTest, NegativeEntriesChargeOneAndCountHits) {
  ResultCache cache(ResultCacheOptions{});
  cache.Insert("none", Meta(7), MakeResult({}));
  EXPECT_EQ(cache.charge(), 1u);
  const auto hit = cache.Lookup("none");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->result.communities.empty());
  EXPECT_EQ(hit->communities_json, "[]");
  EXPECT_EQ(cache.counters().negative_hits, 1u);
}

TEST(DeltaImpactTest, EvictsTruthTable) {
  // Edits inside the 3-and-below cores, cores crossed at levels [5, 6],
  // weights moved somewhere.
  DeltaImpact impact;
  impact.any_core_crossed = true;
  impact.crossed_min = 5;
  impact.crossed_max = 6;
  impact.evict_k_le = 3;
  impact.total_weight_changed = true;

  EXPECT_TRUE(impact.Evicts(Meta(1)));   // under evict_k_le
  EXPECT_TRUE(impact.Evicts(Meta(3)));   // at evict_k_le
  EXPECT_FALSE(impact.Evicts(Meta(4)));  // between the two ranges: kept
  EXPECT_TRUE(impact.Evicts(Meta(5)));   // crossed range
  EXPECT_TRUE(impact.Evicts(Meta(6)));
  EXPECT_FALSE(impact.Evicts(Meta(7)));  // above everything: kept
  // Balanced density consults w(V): weight churn evicts it at any k.
  EXPECT_TRUE(impact.Evicts(Meta(7, /*total_weight_sensitive=*/true)));

  DeltaImpact edges_only;
  edges_only.evict_k_le = 2;
  EXPECT_TRUE(edges_only.Evicts(Meta(2)));
  EXPECT_FALSE(edges_only.Evicts(Meta(3)));
  // No weight churn: balanced density follows the normal k rule.
  EXPECT_FALSE(edges_only.Evicts(Meta(3, /*total_weight_sensitive=*/true)));

  const DeltaImpact empty;  // an all-weights-outside-any-core delta
  EXPECT_FALSE(empty.Evicts(Meta(1)));
}

TEST(ResultCacheTest, InvalidateForDeltaSweepsAndCounts) {
  ResultCache cache(ResultCacheOptions{});
  cache.Insert("k2", Meta(2), MakeResult({3}));
  cache.Insert("k4", Meta(4), MakeResult({4}));
  cache.Insert("k7", Meta(7), MakeResult({5}));
  cache.Insert("bd7", Meta(7, /*total_weight_sensitive=*/true),
               MakeResult({5}));

  DeltaImpact impact;
  impact.evict_k_le = 2;
  impact.total_weight_changed = true;
  cache.InvalidateForDelta(impact);

  EXPECT_EQ(cache.Lookup("k2"), nullptr);
  EXPECT_NE(cache.Lookup("k4"), nullptr);
  EXPECT_NE(cache.Lookup("k7"), nullptr);
  EXPECT_EQ(cache.Lookup("bd7"), nullptr);
  EXPECT_EQ(cache.counters().partial_evicted, 2u);
  EXPECT_EQ(cache.counters().partial_kept, 2u);
  EXPECT_EQ(cache.charge(), 9u);  // k4 + k7 remain
}

TEST(ResultCacheTest, PendingMapLifecycle) {
  ResultCache cache(ResultCacheOptions{});
  EXPECT_EQ(cache.FindPending("a"), nullptr);
  auto pending = std::make_shared<PendingSolve>();
  cache.AddPending("a", pending);
  EXPECT_EQ(cache.FindPending("a"), pending);

  // RemovePending is identity-checked: a different PendingSolve for the
  // same key (post-delta re-entry) is not removed by the old owner.
  auto other = std::make_shared<PendingSolve>();
  cache.RemovePending("a", other);
  EXPECT_EQ(cache.FindPending("a"), pending);
  cache.RemovePending("a", pending);
  EXPECT_EQ(cache.FindPending("a"), nullptr);

  cache.AddPending("b", pending);
  cache.ClearPending();
  EXPECT_EQ(cache.FindPending("b"), nullptr);
}

}  // namespace
}  // namespace ticl
