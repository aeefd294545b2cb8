// Cascade peeling of vertex subsets back to k-cores.
//
// Algorithms 1 and 2 delete one vertex from a candidate community and must
// then restore the k-core property (removals can cascade) and split the
// survivors into connected components. This class owns the O(n) scratch
// arrays (epoch-stamped so they are reset in O(1) per call) and performs
// each peel in time linear in the size of the subset plus its incident
// edges.

#ifndef TICL_ALGO_KCORE_PEELER_H_
#define TICL_ALGO_KCORE_PEELER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ticl {

class SubsetPeeler {
 public:
  /// The graph must outlive the peeler.
  explicit SubsetPeeler(const Graph& g);

  /// Returns the maximal k-core of the subgraph induced by `members`
  /// (sorted ascending; possibly empty). `members` must be duplicate-free.
  VertexList Peel(const VertexList& members, VertexId k);

  /// Peel, then split the survivors into connected components (each sorted).
  std::vector<VertexList> PeelAndSplit(const VertexList& members, VertexId k);

  /// Convenience for the solvers' inner step: removes `removed` from
  /// `members`, peels, splits. `removed` must be present in `members`.
  std::vector<VertexList> RemoveAndSplit(const VertexList& members,
                                         VertexId removed, VertexId k);

  /// Vertices peeled away (beyond explicit removals) by the last call.
  std::size_t last_cascade_size() const { return last_cascade_size_; }

 private:
  /// Stamps `members` (minus `skip`, if valid) into the working set and
  /// computes their induced degrees. Returns the working-set size.
  std::size_t BeginEpoch(const VertexList& members, VertexId skip);

  /// Queue-based cascade removal of working-set vertices with degree < k.
  void Cascade(VertexId k);

  /// Survivors of `members` after Cascade, sorted.
  VertexList Survivors(const VertexList& members, VertexId skip) const;

  /// Components of the surviving working set.
  std::vector<VertexList> SplitSurvivors(const VertexList& members,
                                         VertexId skip);

  bool InWorkingSet(VertexId v) const {
    return epoch_of_[v] == epoch_ && alive_[v];
  }

  friend class SubsetPeelerTestPeer;  // forces the stamp counter to wrap

  const Graph* g_;
  // 32-bit stamps keep the peeler at 13 bytes per vertex. When the counter
  // wraps, BeginEpoch clears both stamp arrays and restarts it at 1.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> epoch_of_;
  std::vector<std::uint8_t> alive_;
  std::vector<VertexId> local_deg_;
  std::vector<VertexId> queue_;
  // Component-split scratch (second stamp so Cascade state is preserved).
  std::vector<std::uint32_t> visit_epoch_of_;
  std::size_t last_cascade_size_ = 0;
};

}  // namespace ticl

#endif  // TICL_ALGO_KCORE_PEELER_H_
