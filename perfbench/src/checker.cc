#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_set>

namespace perfbench {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNone = 0xFFFFFFFFu;

// Relative tolerance for recomputed influence: the checker sums weights
// on its own, and a different summation order moves the last digits
// (about 1e-14 relative on dblp@40).
bool Close(double a, double b) {
  if (a == b) return true;
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

std::uint64_t EdgeKey(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// Batagelj-Zaversnik bucket peeling: core[v] for every vertex.
std::vector<std::uint32_t> CoreNumbers(const CheckGraph& g) {
  const std::uint32_t n = g.n;
  std::vector<std::uint32_t> degree(n);
  std::uint32_t max_degree = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.offsets[v + 1] - g.offsets[v]);
    max_degree = std::max(max_degree, degree[v]);
  }
  std::vector<std::uint32_t> bin(max_degree + 2, 0);
  for (std::uint32_t v = 0; v < n; ++v) ++bin[degree[v]];
  std::uint32_t start = 0;
  for (std::uint32_t d = 0; d <= max_degree; ++d) {
    const std::uint32_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<std::uint32_t> order(n), position(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    position[v] = bin[degree[v]]++;
    order[position[v]] = v;
  }
  for (std::uint32_t d = max_degree; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t v = order[i];
    for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const std::uint32_t u = g.adjacency[e];
      if (degree[u] > degree[v]) {
        const std::uint32_t du = degree[u];
        const std::uint32_t pu = position[u];
        const std::uint32_t pw = bin[du];
        const std::uint32_t w = order[pw];
        if (u != w) {
          position[u] = pw;
          order[pu] = w;
          position[w] = pu;
          order[pw] = u;
        }
        ++bin[du];
        --degree[u];
      }
    }
  }
  return degree;
}

}  // namespace

CheckGraph ApplyEdits(const CheckGraph& g, const CheckDelta& delta) {
  std::unordered_set<std::uint64_t> deleted;
  for (const auto& [u, v] : delta.deletes) deleted.insert(EdgeKey(u, v));
  std::vector<std::vector<std::uint32_t>> added(g.n);
  for (const auto& [u, v] : delta.inserts) {
    added[u].push_back(v);
    added[v].push_back(u);
  }
  CheckGraph out;
  out.n = g.n;
  out.weights = g.weights;
  for (const auto& [v, w] : delta.reweights) out.weights[v] = w;
  out.offsets.assign(g.n + 1, 0);
  out.adjacency.reserve(g.adjacency.size() + 2 * delta.inserts.size());
  std::vector<std::uint32_t> row;
  for (std::uint32_t v = 0; v < g.n; ++v) {
    row.clear();
    for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const std::uint32_t u = g.adjacency[e];
      if (deleted.empty() || deleted.count(EdgeKey(u, v)) == 0) {
        row.push_back(u);
      }
    }
    row.insert(row.end(), added[v].begin(), added[v].end());
    std::sort(row.begin(), row.end());
    out.adjacency.insert(out.adjacency.end(), row.begin(), row.end());
    out.offsets[v + 1] = out.adjacency.size();
  }
  return out;
}

Checker::Checker(const CheckGraph* g)
    : g_(g), core_(CoreNumbers(*g)), stamp_(g->n, 0) {
  for (const double w : g->weights) total_weight_ += w;
}

Checker::Level& Checker::LevelFor(std::uint32_t k) {
  const auto found = levels_.find(k);
  if (found != levels_.end()) return found->second;
  Level& level = levels_[k];
  std::vector<std::uint32_t> component_of(g_->n, kNone);
  std::vector<std::uint32_t> stack;
  for (std::uint32_t s = 0; s < g_->n; ++s) {
    if (core_[s] < k || component_of[s] != kNone) continue;
    Component c;
    const auto id = static_cast<std::uint32_t>(level.components.size());
    component_of[s] = id;
    stack.push_back(s);
    while (!stack.empty()) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      c.members.push_back(v);
      for (std::uint64_t e = g_->offsets[v]; e < g_->offsets[v + 1]; ++e) {
        const std::uint32_t u = g_->adjacency[e];
        if (core_[u] >= k && component_of[u] == kNone) {
          component_of[u] = id;
          stack.push_back(u);
        }
      }
    }
    std::sort(c.members.begin(), c.members.end());
    c.min_weight = std::numeric_limits<double>::infinity();
    c.max_weight = kNegInf;
    for (const std::uint32_t v : c.members) {
      c.weight_sum += g_->weights[v];
      c.min_weight = std::min(c.min_weight, g_->weights[v]);
      c.max_weight = std::max(c.max_weight, g_->weights[v]);
    }
    level.max_weight = std::max(level.max_weight, c.max_weight);
    level.components.push_back(std::move(c));
  }
  return level;
}

// The largest t for which G[w >= t] still has a non-empty k-core: peel the
// k-core by ascending weight, cascading degree drops; the weight of the
// last vertex removed as the minimum is the threshold.
double Checker::MinThreshold(std::uint32_t k, Level* level) {
  if (level->min_threshold_ready) return level->min_threshold;
  std::vector<std::uint32_t> order;
  for (const Component& c : level->components) {
    order.insert(order.end(), c.members.begin(), c.members.end());
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return g_->weights[a] != g_->weights[b] ? g_->weights[a] < g_->weights[b]
                                            : a < b;
  });
  std::vector<std::uint32_t> degree(g_->n, 0);
  std::vector<char> alive(g_->n, 0);
  for (const std::uint32_t v : order) alive[v] = 1;
  for (const std::uint32_t v : order) {
    for (std::uint64_t e = g_->offsets[v]; e < g_->offsets[v + 1]; ++e) {
      degree[v] += alive[g_->adjacency[e]];
    }
  }
  double threshold = kNegInf;
  std::vector<std::uint32_t> queue;
  for (const std::uint32_t v : order) {
    if (!alive[v]) continue;
    threshold = g_->weights[v];
    alive[v] = 0;
    queue.push_back(v);
    while (!queue.empty()) {
      const std::uint32_t x = queue.back();
      queue.pop_back();
      for (std::uint64_t e = g_->offsets[x]; e < g_->offsets[x + 1]; ++e) {
        const std::uint32_t y = g_->adjacency[e];
        if (alive[y] && --degree[y] < k) {
          alive[y] = 0;
          queue.push_back(y);
        }
      }
    }
  }
  level->min_threshold = threshold;
  level->min_threshold_ready = true;
  return threshold;
}

double Checker::Evaluate(const BenchQuery& q, double weight_sum,
                         std::size_t size, double min_weight,
                         double max_weight) const {
  if (size == 0) return kNegInf;
  const auto count = static_cast<double>(size);
  switch (q.f) {
    case Agg::kMin:
      return min_weight;
    case Agg::kMax:
      return max_weight;
    case Agg::kSum:
      return weight_sum;
    case Agg::kSumSurplus:
      return weight_sum + q.alpha * count;
    case Agg::kAvg:
      return weight_sum / count;
    case Agg::kWeightDensity:
      return weight_sum - q.beta * count;
    case Agg::kBalancedDensity: {
      // w(H) / (w(H) - w(V \ H)); -inf when the denominator is not
      // positive.
      const double denominator = weight_sum - (total_weight_ - weight_sum);
      return denominator > 0.0 ? weight_sum / denominator : kNegInf;
    }
  }
  return kNegInf;
}

std::string Checker::CheckCommunity(const BenchQuery& q, const Community& c) {
  const std::vector<std::uint32_t>& m = c.members;
  if (m.empty()) return "empty community";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m[i] >= g_->n) return "member out of range";
    if (i > 0 && m[i] <= m[i - 1]) return "members not sorted and unique";
  }
  if (q.s != 0 && m.size() > q.s) return "community larger than s";
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  for (const std::uint32_t v : m) stamp_[v] = epoch_;
  double sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = kNegInf;
  for (const std::uint32_t v : m) {
    std::uint32_t inside = 0;
    for (std::uint64_t e = g_->offsets[v]; e < g_->offsets[v + 1]; ++e) {
      inside += stamp_[g_->adjacency[e]] == epoch_;
    }
    if (inside < q.k) return "induced degree below k";
    const double w = g_->weights[v];
    sum += w;
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
  // Connectivity: BFS inside the member set, marking visits with the
  // next epoch so the membership marks stay readable.
  const std::uint32_t member_mark = epoch_;
  const std::uint32_t seen_mark = ++epoch_;
  std::vector<std::uint32_t> stack = {m[0]};
  stamp_[m[0]] = seen_mark;
  std::size_t reached = 0;
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    ++reached;
    for (std::uint64_t e = g_->offsets[v]; e < g_->offsets[v + 1]; ++e) {
      const std::uint32_t u = g_->adjacency[e];
      if (stamp_[u] == member_mark) {
        stamp_[u] = seen_mark;
        stack.push_back(u);
      }
    }
  }
  if (reached != m.size()) return "community not connected";
  const double expected = Evaluate(q, sum, m.size(), lo, hi);
  if (!Close(c.influence, expected)) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "influence %.17g differs from recomputed %.17g",
                  c.influence, expected);
    return buffer;
  }
  return "";
}

std::string Checker::Check(const BenchQuery& q,
                           const std::vector<Community>& answer) {
  if (answer.size() > q.r) return "more than r communities";
  for (std::size_t i = 0; i < answer.size(); ++i) {
    const std::string problem = CheckCommunity(q, answer[i]);
    if (!problem.empty()) {
      return "community " + std::to_string(i) + ": " + problem;
    }
    if (i > 0 && answer[i].influence > answer[i - 1].influence) {
      return "influence increases at entry " + std::to_string(i);
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (answer[j].members == answer[i].members) {
        return "duplicate community at entry " + std::to_string(i);
      }
    }
  }
  if (q.tonic) {
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    for (const Community& c : answer) {
      for (const std::uint32_t v : c.members) {
        if (stamp_[v] == epoch_) return "TONIC communities overlap";
        stamp_[v] = epoch_;
      }
    }
  }
  if (q.s != 0) return "";  // local search: validity only

  // Unconstrained: judge against the k-core components.
  Level& level = LevelFor(q.k);
  std::vector<std::pair<double, std::size_t>> ranked;  // (f, component)
  for (std::size_t i = 0; i < level.components.size(); ++i) {
    const Component& c = level.components[i];
    const double value = Evaluate(q, c.weight_sum, c.members.size(),
                                  c.min_weight, c.max_weight);
    if (value != kNegInf) ranked.emplace_back(value, i);
  }
  if (ranked.empty()) return "";  // nothing finite: empty is right
  if (answer.empty()) return "empty answer although a k-core component has "
                             "a finite value";
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  const double top = answer[0].influence;
  switch (q.f) {
    case Agg::kMin:
      if (!q.tonic && !Close(top, MinThreshold(q.k, &level))) {
        return "min top-1 is not the largest feasible threshold";
      }
      return "";
    case Agg::kMax:
      if (!Close(top, level.max_weight)) {
        return "max top-1 is not the heaviest k-core vertex";
      }
      break;
    case Agg::kSum:
    case Agg::kSumSurplus:
      if (!Close(top, ranked[0].first)) {
        return "top-1 is not the heaviest k-core component";
      }
      break;
    default:
      return "";  // heuristic classes: validity only
  }
  if (!q.tonic) return "";
  // sum / sum-surplus / max TONIC: exactly the top-r components.
  const std::size_t want = std::min<std::size_t>(q.r, ranked.size());
  if (answer.size() != want) {
    return "TONIC answer holds " + std::to_string(answer.size()) +
           " communities, expected the top " + std::to_string(want) +
           " k-core components";
  }
  for (std::size_t i = 0; i < want; ++i) {
    if (!Close(answer[i].influence, ranked[i].first)) {
      return "TONIC entry " + std::to_string(i) +
             " is not the next k-core component";
    }
    const bool tied =
        (i > 0 && Close(ranked[i - 1].first, ranked[i].first)) ||
        (i + 1 < ranked.size() && Close(ranked[i + 1].first, ranked[i].first));
    if (!tied &&
        answer[i].members != level.components[ranked[i].second].members) {
      return "TONIC entry " + std::to_string(i) +
             " is not a whole k-core component";
    }
  }
  return "";
}

}  // namespace perfbench
