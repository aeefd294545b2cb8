#include "algo/connectivity.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <unordered_set>

#include "util/check.h"

namespace ticl {

namespace {

/// Calls `visit(j)` for every position j of `members` (sorted) whose
/// vertex is adjacent to `v`, in ascending order, until `visit` returns
/// false. Walks the shorter of N(v) and `members` and binary-searches the
/// remainder of the longer one, so the cost is O(min(deg v, |members|) *
/// log) rather than O(deg v).
template <typename Visit>
void ForEachMemberNeighbor(const Graph& g, std::span<const VertexId> members,
                           VertexId v, Visit visit) {
  const std::span<const VertexId> adj = g.neighbors(v);
  if (adj.size() < members.size()) {
    auto lo = members.begin();
    for (const VertexId nbr : adj) {
      lo = std::lower_bound(lo, members.end(), nbr);
      if (lo == members.end()) return;
      const auto j = static_cast<std::size_t>(lo - members.begin());
      if (*lo == nbr && !visit(j)) return;
    }
  } else {
    auto lo = adj.begin();
    for (std::size_t j = 0; j < members.size(); ++j) {
      lo = std::lower_bound(lo, adj.end(), members[j]);
      if (lo == adj.end()) return;
      if (*lo == members[j] && !visit(j)) return;
    }
  }
}

/// Open-addressing vertex set (linear probing, power-of-two capacity kept
/// at most half full). Its size follows what is inserted, so a BFS that
/// collects s vertices pays for O(s) slots, not O(n).
class VertexSet {
 public:
  /// Inserts `v`; false if it was already present.
  bool Insert(VertexId v) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    for (std::size_t i = Slot(v);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == v) return false;
      if (slots_[i] == kInvalidVertex) {
        slots_[i] = v;
        ++size_;
        return true;
      }
    }
  }

 private:
  std::size_t Slot(VertexId v) const {
    // Fibonacci hashing: the top bits of v * 2^64/phi.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Grow() {
    std::vector<VertexId> old(slots_.empty() ? 32 : 2 * slots_.size(),
                              kInvalidVertex);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const VertexId v : old) {
      if (v == kInvalidVertex) continue;
      std::size_t i = Slot(v);
      while (slots_[i] != kInvalidVertex) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = v;
    }
  }

  std::vector<VertexId> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace

ComponentLabels ConnectedComponents(const Graph& g) {
  const VertexId n = g.num_vertices();
  ComponentLabels out;
  out.label.assign(n, kInvalidVertex);
  std::vector<VertexId> queue;
  for (VertexId start = 0; start < n; ++start) {
    if (out.label[start] != kInvalidVertex) continue;
    const VertexId id = out.num_components++;
    out.label[start] = id;
    queue.clear();
    queue.push_back(start);
    while (!queue.empty()) {
      const VertexId v = queue.back();
      queue.pop_back();
      for (const VertexId nbr : g.neighbors(v)) {
        if (out.label[nbr] == kInvalidVertex) {
          out.label[nbr] = id;
          queue.push_back(nbr);
        }
      }
    }
  }
  return out;
}

std::vector<VertexList> ComponentsOfSubset(const Graph& g,
                                           std::span<const VertexId> members) {
  // Hash-set membership keeps this O(sum of degrees) without O(n) scratch,
  // so it stays cheap when called with many small subsets.
  std::unordered_set<VertexId> in_set(members.begin(), members.end());
  TICL_CHECK_MSG(in_set.size() == members.size(),
                 "duplicate vertex in subset");
  std::unordered_set<VertexId> visited;
  visited.reserve(members.size());

  std::vector<VertexList> components;
  std::vector<VertexId> queue;
  for (const VertexId start : members) {
    if (visited.contains(start)) continue;
    VertexList component;
    queue.clear();
    queue.push_back(start);
    visited.insert(start);
    while (!queue.empty()) {
      const VertexId v = queue.back();
      queue.pop_back();
      component.push_back(v);
      for (const VertexId nbr : g.neighbors(v)) {
        if (in_set.contains(nbr) && !visited.contains(nbr)) {
          visited.insert(nbr);
          queue.push_back(nbr);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

bool IsSubsetConnected(const Graph& g, const VertexList& members) {
  if (members.size() <= 1) return true;
  std::unordered_set<VertexId> in_set(members.begin(), members.end());
  TICL_CHECK_MSG(in_set.size() == members.size(),
                 "duplicate vertex in subset");
  std::unordered_set<VertexId> visited;
  visited.reserve(members.size());
  std::vector<VertexId> queue{members.front()};
  visited.insert(members.front());
  while (!queue.empty()) {
    const VertexId v = queue.back();
    queue.pop_back();
    for (const VertexId nbr : g.neighbors(v)) {
      if (in_set.contains(nbr) && !visited.contains(nbr)) {
        visited.insert(nbr);
        queue.push_back(nbr);
      }
    }
  }
  return visited.size() == members.size();
}

bool IsConnectedKCore(const Graph& g, std::span<const VertexId> sorted_members,
                      VertexId k) {
  TICL_DCHECK(std::adjacent_find(sorted_members.begin(), sorted_members.end(),
                                 std::greater_equal<VertexId>()) ==
              sorted_members.end());
  const std::size_t size = sorted_members.size();
  if (size == 0) return true;
  // A member of a set of at most k vertices has fewer than k neighbours in it.
  if (size <= k) return false;
  for (const VertexId v : sorted_members) {
    VertexId deg = 0;
    ForEachMemberNeighbor(g, sorted_members, v,
                          [&deg, k](std::size_t) { return ++deg < k; });
    if (deg < k) return false;
  }
  // BFS over member positions; `queue` holds the positions reached so far.
  std::vector<std::uint8_t> visited(size, 0);
  std::vector<VertexId> queue;
  queue.reserve(size);
  queue.push_back(0);
  visited[0] = 1;
  for (std::size_t head = 0; head < queue.size() && queue.size() < size;
       ++head) {
    ForEachMemberNeighbor(g, sorted_members, sorted_members[queue[head]],
                          [&](std::size_t j) {
                            if (visited[j] == 0) {
                              visited[j] = 1;
                              queue.push_back(static_cast<VertexId>(j));
                            }
                            return queue.size() < size;
                          });
  }
  return queue.size() == size;
}

VertexList CollectNearestNeighbors(
    const Graph& g, VertexId seed, std::size_t limit,
    const std::function<bool(VertexId)>& allowed) {
  VertexList collected;
  if (limit == 0) return collected;
  TICL_CHECK(seed < g.num_vertices());
  TICL_CHECK_MSG(allowed(seed), "seed filtered out by `allowed`");

  // `collected` doubles as the BFS queue: vertices are expanded in the
  // order they were collected, from `head` on. Only allowed vertices enter
  // `visited`, so it holds exactly the collected ones.
  VertexSet visited;
  visited.Insert(seed);
  collected.push_back(seed);
  for (std::size_t head = 0;
       head < collected.size() && collected.size() < limit; ++head) {
    for (const VertexId nbr : g.neighbors(collected[head])) {
      if (!allowed(nbr) || !visited.Insert(nbr)) continue;
      collected.push_back(nbr);
      if (collected.size() == limit) break;
    }
  }
  return collected;
}

}  // namespace ticl
