// Input preparation through the library: the paper-scale snapshot the
// server opens, and the seeded chain of delta snapshots it applies.
#ifndef PERFBENCH_PREPARE_H_
#define PERFBENCH_PREPARE_H_

#include <string>
#include <vector>

#include "checker.h"
#include "plan.h"

namespace perfbench {

/// Writes standin:dblp@40 (320k vertices, PageRank weights) with its core
/// index to `path`. The graph does not depend on the workload seed.
bool PrepareBase(const std::string& path, std::string* error);

/// The checker's own copy of the snapshot's graph.
bool LoadCheckGraph(const std::string& path, CheckGraph* out,
                    std::string* error);

/// Generates plan.num_deltas parent-chained delta snapshots in `dir`
/// (delta-00.snap, ...) from the plan's seed, and hands back their paths
/// and their edits for the checker.
bool PrepareDeltas(const std::string& base_path, const Plan& plan,
                   const std::string& dir, std::vector<std::string>* paths,
                   std::vector<CheckDelta>* edits, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_PREPARE_H_
