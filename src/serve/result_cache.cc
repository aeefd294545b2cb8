#include "serve/result_cache.h"

#include <algorithm>
#include <utility>

#include "core/community.h"
#include "util/check.h"

namespace ticl {

namespace {

/// Size-aware cache charge: total member ids held by the result, floored
/// at 1 so negative (zero-community) entries still occupy a slot's worth
/// of budget.
std::size_t ResultCharge(const SearchResult& result) {
  std::size_t members = 0;
  for (const Community& c : result.communities) members += c.members.size();
  return std::max<std::size_t>(members, 1);
}

}  // namespace

ResultCache::ResultCache(const ResultCacheOptions& options)
    : member_budget_(options.member_budget) {}

std::shared_ptr<const Answer> ResultCache::Lookup(const std::string& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  if (it->second->answer->result.communities.empty()) {
    ++counters_.negative_hits;
  }
  return it->second->answer;
}

ResultCache::InsertOutcome ResultCache::Insert(
    const std::string& key, const CacheEntryMeta& meta,
    std::shared_ptr<const Answer> answer) {
  TICL_CHECK_MSG(enabled(), "Insert on a disabled cache");
  TICL_CHECK_MSG(answer != nullptr, "cannot cache a null answer");
  if (map_.find(key) != map_.end()) return InsertOutcome::kDuplicate;
  const std::size_t charge = ResultCharge(answer->result);
  if (charge > member_budget_) return InsertOutcome::kUncacheable;
  bytes_ += answer->communities_json.size();
  lru_.push_front(Entry{key, meta, std::move(answer), charge});
  map_.emplace(key, lru_.begin());
  charge_ += charge;
  while (charge_ > member_budget_) {
    auto victim = std::prev(lru_.end());
    ++counters_.evictions;
    EraseEntry(victim);
  }
  return InsertOutcome::kInserted;
}

void ResultCache::InvalidateForDelta(const DeltaImpact& impact) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (impact.Evicts(it->meta)) {
      ++counters_.partial_evicted;
      const auto victim = it++;
      EraseEntry(victim);
    } else {
      ++counters_.partial_kept;
      ++it;
    }
  }
}

std::shared_ptr<PendingSolve> ResultCache::FindPending(
    const std::string& key) const {
  const auto it = pending_.find(key);
  return it != pending_.end() ? it->second : nullptr;
}

void ResultCache::AddPending(const std::string& key,
                             std::shared_ptr<PendingSolve> pending) {
  const bool inserted =
      pending_.emplace(key, std::move(pending)).second;
  TICL_CHECK_MSG(inserted, "a solve for this key is already pending");
}

void ResultCache::RemovePending(
    const std::string& key, const std::shared_ptr<PendingSolve>& pending) {
  const auto it = pending_.find(key);
  if (it != pending_.end() && it->second == pending) pending_.erase(it);
}

void ResultCache::ClearPending() { pending_.clear(); }

void ResultCache::EraseEntry(std::list<Entry>::iterator it) {
  charge_ -= it->charge;
  bytes_ -= it->answer->communities_json.size();
  map_.erase(it->key);
  lru_.erase(it);
}

}  // namespace ticl
