// The traced run: replays a workload's seeded stream and delta chain
// in-process and times calls into each layer's public functions from
// here, outside the program.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <string>
#include <vector>

#include "checker.h"
#include "outcome.h"
#include "plan.h"

namespace perfbench {

struct TraceInputs {
  std::string served_binary;
  std::string snapshot_path;
  std::vector<std::string> delta_paths;
  const CheckGraph* base = nullptr;
};

/// Fills `out` with every per-layer metric. Solver answers are checked
/// with the independent checker and counted in attempted / failed.
bool Trace(const Plan& plan, const TraceInputs& in, Outcome* out,
           std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
