#include "core/verification.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/top_r_list.h"

namespace ticl {

namespace {

std::string Describe(const char* what, std::size_t index) {
  return std::string(what) + " (community #" + std::to_string(index) + ")";
}

constexpr std::uint8_t kMember = 1;
constexpr std::uint8_t kReached = 2;

/// Induced minimum degree >= k and connectivity of `members`, all of which
/// are marked kMember in `mark`. The connectivity walk re-marks what it
/// reaches as kReached.
std::string CheckInducedSubgraph(const Graph& g, const VertexList& members,
                                 VertexId k, std::vector<std::uint8_t>& mark) {
  for (const VertexId v : members) {
    VertexId deg = 0;
    for (const VertexId nbr : g.neighbors(v)) {
      if (mark[nbr] != 0) ++deg;
    }
    if (deg < k) {
      return "vertex " + std::to_string(v) + " has induced degree " +
             std::to_string(deg) + " < k=" + std::to_string(k);
    }
  }

  std::vector<VertexId> stack{members.front()};
  mark[members.front()] = kReached;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (const VertexId nbr : g.neighbors(v)) {
      if (mark[nbr] == kMember) {
        mark[nbr] = kReached;
        ++reached;
        stack.push_back(nbr);
      }
    }
  }
  if (reached != members.size()) return "community not connected";
  return "";
}

/// ValidateCommunity over a caller-owned membership array of
/// g.num_vertices() zeros, which is all zeros again on return.
std::string CheckCommunity(const Graph& g, const VertexList& members,
                           VertexId k, VertexId size_limit,
                           std::vector<std::uint8_t>& mark) {
  if (members.empty()) return "community is empty";
  if (!std::is_sorted(members.begin(), members.end())) {
    return "members not sorted";
  }
  if (std::adjacent_find(members.begin(), members.end()) != members.end()) {
    return "duplicate members";
  }
  if (members.back() >= g.num_vertices()) return "member out of range";
  if (size_limit != 0 && members.size() > size_limit) {
    return "size limit exceeded";
  }

  for (const VertexId v : members) mark[v] = kMember;
  std::string problem = CheckInducedSubgraph(g, members, k, mark);
  for (const VertexId v : members) mark[v] = 0;
  return problem;
}

}  // namespace

std::string ValidateCommunity(const Graph& g, const VertexList& members,
                              VertexId k, VertexId size_limit) {
  std::vector<std::uint8_t> mark(g.num_vertices(), 0);
  return CheckCommunity(g, members, k, size_limit, mark);
}

std::string ValidateResult(const Graph& g, const Query& query,
                           const SearchResult& result) {
  const std::string query_problem = ValidateQuery(query, g);
  if (!query_problem.empty()) return "invalid query: " + query_problem;
  if (result.communities.size() > query.r) {
    return "more than r communities returned";
  }

  std::unordered_set<std::uint64_t> hashes;
  std::vector<std::uint8_t> mark(g.num_vertices(), 0);
  for (std::size_t i = 0; i < result.communities.size(); ++i) {
    const Community& c = result.communities[i];
    const std::string problem =
        CheckCommunity(g, c.members, query.k, query.size_limit, mark);
    if (!problem.empty()) return Describe(problem.c_str(), i);

    const double recomputed =
        EvaluateOnSubset(query.aggregation, g, c.members);
    if (std::isinf(recomputed) || std::isinf(c.influence)) {
      if (recomputed != c.influence) {
        return Describe("stored influence mismatches recomputation", i);
      }
    } else {
      // Solvers may compute influence incrementally; allow a relative
      // epsilon.
      const double tolerance =
          1e-9 *
          std::max({1.0, std::fabs(recomputed), std::fabs(c.influence)});
      if (std::fabs(recomputed - c.influence) > tolerance) {
        return Describe("stored influence mismatches recomputation", i);
      }
    }

    if (!hashes.insert(c.hash).second) {
      return Describe("duplicate community in result", i);
    }
    if (i > 0) {
      const Community& prev = result.communities[i - 1];
      if (!TopRList<int>::Better(prev.influence, prev.hash, c.influence,
                                 c.hash)) {
        return Describe("result not sorted by decreasing influence", i);
      }
    }
  }

  if (query.non_overlapping) {
    for (std::size_t i = 0; i < result.communities.size(); ++i) {
      for (std::size_t j = i + 1; j < result.communities.size(); ++j) {
        if (CommunitiesOverlap(result.communities[i],
                               result.communities[j])) {
          return "TONIC result communities " + std::to_string(i) + " and " +
                 std::to_string(j) + " overlap";
        }
      }
    }
  }
  return "";
}

}  // namespace ticl
