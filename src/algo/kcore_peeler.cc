#include "algo/kcore_peeler.h"

#include <algorithm>

#include "util/check.h"

namespace ticl {

SubsetPeeler::SubsetPeeler(const Graph& g)
    : g_(&g),
      epoch_of_(g.num_vertices(), 0),
      alive_(g.num_vertices(), 0),
      local_deg_(g.num_vertices(), 0),
      visit_epoch_of_(g.num_vertices(), 0) {}

std::size_t SubsetPeeler::BeginEpoch(const VertexList& members,
                                     VertexId skip) {
  if (++epoch_ == 0) {
    std::fill(epoch_of_.begin(), epoch_of_.end(), 0);
    std::fill(visit_epoch_of_.begin(), visit_epoch_of_.end(), 0);
    epoch_ = 1;
  }
  std::size_t working = 0;
  for (const VertexId v : members) {
    if (v == skip) continue;
    TICL_DCHECK(v < g_->num_vertices());
    TICL_CHECK_MSG(epoch_of_[v] != epoch_, "duplicate vertex in peel subset");
    epoch_of_[v] = epoch_;
    alive_[v] = 1;
    ++working;
  }
  for (const VertexId v : members) {
    if (v == skip) continue;
    VertexId d = 0;
    for (const VertexId nbr : g_->neighbors(v)) {
      if (epoch_of_[nbr] == epoch_) ++d;
    }
    local_deg_[v] = d;
  }
  return working;
}

void SubsetPeeler::Cascade(VertexId k) {
  // The entry points have already pushed the initial under-degree victims
  // into queue_ (right after BeginEpoch computed induced degrees); this
  // drains it to the fixpoint.
  last_cascade_size_ = 0;
  while (!queue_.empty()) {
    const VertexId v = queue_.back();
    queue_.pop_back();
    if (!InWorkingSet(v)) continue;
    alive_[v] = 0;
    ++last_cascade_size_;
    for (const VertexId nbr : g_->neighbors(v)) {
      if (!InWorkingSet(nbr)) continue;
      if (local_deg_[nbr] > 0) --local_deg_[nbr];
      if (local_deg_[nbr] < k) queue_.push_back(nbr);
    }
  }
}

VertexList SubsetPeeler::Survivors(const VertexList& members,
                                   VertexId skip) const {
  VertexList out;
  for (const VertexId v : members) {
    if (v != skip && InWorkingSet(v)) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

VertexList SubsetPeeler::Peel(const VertexList& members, VertexId k) {
  BeginEpoch(members, kInvalidVertex);
  queue_.clear();
  for (const VertexId v : members) {
    if (local_deg_[v] < k) queue_.push_back(v);
  }
  Cascade(k);
  return Survivors(members, kInvalidVertex);
}

std::vector<VertexList> SubsetPeeler::SplitSurvivors(
    const VertexList& members, VertexId skip) {
  std::vector<VertexList> components;
  std::vector<VertexId> stack;
  for (const VertexId start : members) {
    if (start == skip || !InWorkingSet(start)) continue;
    if (visit_epoch_of_[start] == epoch_) continue;
    VertexList component;
    visit_epoch_of_[start] = epoch_;
    stack.clear();
    stack.push_back(start);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      component.push_back(v);
      for (const VertexId nbr : g_->neighbors(v)) {
        if (InWorkingSet(nbr) && visit_epoch_of_[nbr] != epoch_) {
          visit_epoch_of_[nbr] = epoch_;
          stack.push_back(nbr);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

std::vector<VertexList> SubsetPeeler::PeelAndSplit(const VertexList& members,
                                                   VertexId k) {
  BeginEpoch(members, kInvalidVertex);
  queue_.clear();
  for (const VertexId v : members) {
    if (local_deg_[v] < k) queue_.push_back(v);
  }
  Cascade(k);
  return SplitSurvivors(members, kInvalidVertex);
}

std::vector<VertexList> SubsetPeeler::RemoveAndSplit(
    const VertexList& members, VertexId removed, VertexId k) {
  TICL_DCHECK(std::find(members.begin(), members.end(), removed) !=
              members.end());
  BeginEpoch(members, removed);
  queue_.clear();
  for (const VertexId v : members) {
    if (v != removed && local_deg_[v] < k) queue_.push_back(v);
  }
  Cascade(k);
  return SplitSurvivors(members, removed);
}

}  // namespace ticl
