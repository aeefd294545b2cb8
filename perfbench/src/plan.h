// Seeded workload plans: the query streams and delta schedule that the
// end-to-end client sends to ticl_served and the traced run replays
// in-process. Nothing here depends on the library, so the inputs are
// defined apart from the program they exercise.
#ifndef PERFBENCH_PLAN_H_
#define PERFBENCH_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Agg {
  kMin,
  kMax,
  kSum,
  kSumSurplus,
  kAvg,
  kWeightDensity,
  kBalancedDensity,
};

/// Wire name of an aggregation ("sum-surplus", ...).
const char* AggName(Agg f);

struct BenchQuery {
  std::uint32_t k = 1;
  std::uint32_t r = 1;
  /// Size limit; 0 = unconstrained.
  std::uint32_t s = 0;
  Agg f = Agg::kSum;
  bool tonic = false;
  double alpha = 1.0;  // sum-surplus only
  double beta = 1.0;   // weight density only
  /// Balanced-density unconstrained at k in {4, 6}: LocalSearch answers
  /// with zero communities although the k-core's balanced density is
  /// finite. Kept in solve-mix and counted as failed until mended.
  bool known_fault = false;
};

/// One JSONL request line (newline-terminated) with the given id.
std::string RequestLine(const BenchQuery& q, std::uint64_t id);

/// Short label, e.g. "TIC k=20 r=3 s=40 f=avg".
std::string Describe(const BenchQuery& q);

/// Delta make-up for churn (and the few deltas the other workloads apply
/// after their timed phase). Every edit touches a vertex whose core
/// number is at most `core_cut`, so a delta evicts cached answers at
/// k <= core_cut + 1 and provably keeps those above.
struct DeltaSpec {
  std::uint32_t core_cut = 12;
  std::uint32_t deletes = 40;
  std::uint32_t inserts = 40;
  std::uint32_t reweights = 20;
};

struct Plan {
  std::string workload;
  std::uint64_t seed = 0;
  /// solve-mix: one round of distinct queries (every round sends the same
  /// list to a freshly started server). hit-storm / churn: the hot set.
  std::vector<BenchQuery> queries;
  /// hit-storm / churn: per query connection, the order in which it
  /// cycles through the hot set (one pass = every hot query once).
  std::vector<std::vector<std::uint32_t>> conn_orders;
  /// solve-mix: the order in which the round is handed to connections.
  std::vector<std::uint32_t> round_order;
  /// Length of the seeded delta chain. Every workload applies its first
  /// kProbeDeltas to freshly started servers to sample apply_delta.
  std::uint32_t num_deltas = 0;
  /// churn: deltas sent during the timed phase, one per interval.
  std::uint32_t scheduled_deltas = 0;
  double delta_interval_s = 0.0;
  /// hit-storm / churn: length of the windows whose medians are reported.
  double window_s = 1.0;
  DeltaSpec delta_spec;
};

/// solve-mix's connections, and the most any workload opens.
inline constexpr std::uint32_t kConnections = 4;
/// Query connections of hit-storm and churn (churn adds one for deltas).
/// A hot-set connection keeps a server worker and a client thread busy
/// with its large replies most of the time; with four of them, the busy
/// threads outnumbered four cores, and in interleaved runs hit-storm's
/// small-reply p50 scattered over 0.15-0.38 ms against 0.12-0.26 ms with
/// two.
inline constexpr std::uint32_t kHotReaders = 2;
inline constexpr std::uint32_t kServerThreads = 4;
/// Deltas each set-up probe applies. A process's first applies run up to
/// twice as long as its later ones (fresh memory), so the median of nine
/// reads its steady cost.
inline constexpr std::uint32_t kProbeDeltas = 9;

/// Builds the plan of `workload` ("solve-mix", "hit-storm", "churn") for
/// `seed` and a run of `seconds`. Returns false for an unknown workload.
bool MakePlan(const std::string& workload, std::uint64_t seed,
              double seconds, Plan* plan);

/// splitmix64-based generator: fully specified, so a seed means the same
/// inputs with any compiler or standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [lo, hi].
  std::uint32_t Between(std::uint32_t lo, std::uint32_t hi);
  /// Uniform in [0, 1).
  double Unit();
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (std::size_t i = items->size(); i > 1; --i) {
      const std::size_t j = Next() % i;
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PLAN_H_
