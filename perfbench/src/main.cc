// perfbench: the end-to-end and per-layer benchmark of ticl_served.
//
//   perfbench prepare-base --out dblp40.snap
//   perfbench run --workload solve-mix --seed 1 --seconds 15 --trace 0
//       --served PATH/ticl_served --snapshot dblp40.snap --work DIR
//
// `run` prints one JSON object as the last line of standard output:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// perfbench/run.py builds everything and is the command to use.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checker.h"
#include "drive.h"
#include "outcome.h"
#include "plan.h"
#include "prepare.h"
#include "trace.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare-base --out PATH\n"
               "       perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --served PATH --snapshot PATH --work DIR\n");
  return 2;
}

void PrintOutcome(const perfbench::Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.unexpected_failures == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::string workload, served, snapshot, work, out_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--served") {
      served = value;
    } else if (flag == "--snapshot") {
      snapshot = value;
    } else if (flag == "--work") {
      work = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage();
    }
  }
  std::string error;
  if (command == "prepare-base") {
    if (out_path.empty()) return Usage();
    if (!perfbench::PrepareBase(out_path, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  if (command != "run" || served.empty() || snapshot.empty() ||
      work.empty() || seconds <= 0.0) {
    return Usage();
  }
  perfbench::Plan plan;
  if (!perfbench::MakePlan(workload, seed, seconds, &plan)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  perfbench::CheckGraph base;
  std::vector<std::string> delta_paths;
  std::vector<perfbench::CheckDelta> delta_edits;
  if (!perfbench::LoadCheckGraph(snapshot, &base, &error) ||
      !perfbench::PrepareDeltas(snapshot, plan, work, &delta_paths,
                                &delta_edits, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  perfbench::Outcome outcome;
  bool ok = false;
  if (trace != 0) {
    perfbench::TraceInputs in{served, snapshot, delta_paths, &base};
    ok = perfbench::Trace(plan, in, &outcome, &error);
  } else {
    perfbench::DriveInputs in{served,      snapshot, delta_paths,
                              delta_edits, &base,    seconds};
    ok = perfbench::Drive(plan, in, &outcome, &error);
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   m.name.c_str());
      return 1;
    }
  }
  for (const std::string& note : outcome.notes) {
    std::fprintf(stderr, "[perfbench] failed: %s\n", note.c_str());
  }
  PrintOutcome(outcome);
  return 0;
}
