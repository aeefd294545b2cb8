// What one benchmark run reports: operation counts and named metrics.
#ifndef PERFBENCH_OUTCOME_H_
#define PERFBENCH_OUTCOME_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failures other than the known fault (BenchQuery::known_fault). Any
  /// of them makes the run incorrect.
  std::uint64_t unexpected_failures = 0;
  std::vector<Metric> metrics;
  /// The first few failure descriptions, for stderr.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(bool known_fault, const std::string& note) {
    ++failed;
    if (!known_fault) ++unexpected_failures;
    if (notes.size() < 8) notes.push_back(note);
  }
};

/// Median / quantile by linear interpolation between order statistics.
double Quantile(std::vector<double> values, double q);

/// Latency percentile by nearest rank: the smallest sample with at least
/// a share q of the samples at or below it. Unlike interpolation it never
/// reports a value between two different queries' latencies.
double NearestRank(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_OUTCOME_H_
