// Independent output checker. It keeps its own copy of the graph and
// computes everything a reply is judged by with its own code: core
// numbers, k-core components, weight sums and the min top-1 threshold.
// No result is taken from the library's solvers.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "plan.h"
#include "reply.h"

namespace perfbench {

struct CheckGraph {
  std::uint32_t n = 0;
  std::vector<std::uint64_t> offsets;  // n + 1
  std::vector<std::uint32_t> adjacency;
  std::vector<double> weights;
};

/// Edits in the order the delta format applies them: deletes, inserts,
/// then weight updates.
struct CheckDelta {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> deletes;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> inserts;
  std::vector<std::pair<std::uint32_t, double>> reweights;
};

/// The graph after `delta`. Adjacency lists stay sorted.
CheckGraph ApplyEdits(const CheckGraph& g, const CheckDelta& delta);

/// Judges answers against one graph version. Per-k work (k-core
/// components, the min threshold) is computed on first use and kept.
class Checker {
 public:
  explicit Checker(const CheckGraph* g);
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// "" when `answer` is a valid reply to `q` on this graph, else the
  /// first problem found.
  std::string Check(const BenchQuery& q, const std::vector<Community>& answer);

 private:
  struct Component {
    std::vector<std::uint32_t> members;  // sorted
    double weight_sum = 0.0;
    double min_weight = 0.0;
    double max_weight = 0.0;
  };
  struct Level {
    std::vector<Component> components;
    double max_weight = 0.0;  // over the whole k-core
    bool min_threshold_ready = false;
    double min_threshold = 0.0;
  };

  Level& LevelFor(std::uint32_t k);
  double MinThreshold(std::uint32_t k, Level* level);
  std::string CheckCommunity(const BenchQuery& q, const Community& c);
  double Evaluate(const BenchQuery& q, double weight_sum, std::size_t size,
                  double min_weight, double max_weight) const;

  const CheckGraph* g_;
  double total_weight_ = 0.0;
  std::vector<std::uint32_t> core_;
  std::map<std::uint32_t, Level> levels_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
