// The end-to-end client: starts the unmodified ticl_served on the
// prepared snapshot, drives it over loopback from this one process, times
// every request at the client, and checks every reply with the
// independent checker.
#ifndef PERFBENCH_DRIVE_H_
#define PERFBENCH_DRIVE_H_

#include <string>
#include <vector>

#include "checker.h"
#include "outcome.h"
#include "plan.h"

namespace perfbench {

struct DriveInputs {
  std::string served_binary;
  std::string snapshot_path;
  std::vector<std::string> delta_paths;
  std::vector<CheckDelta> delta_edits;
  const CheckGraph* base = nullptr;
  double seconds = 10.0;
};

/// Runs `plan` end to end and fills `out` with the end-to-end metrics:
/// setup_s, qps, p50_ms, p99_ms, delta_apply_ms, peak_rss_mb. False (with
/// *error) when the server could not be started or driven at all.
bool Drive(const Plan& plan, const DriveInputs& in, Outcome* out,
           std::string* error);

/// Median round trip of `pings` admin ping lines, in microseconds.
double MeasurePing(const std::string& served_binary,
                   const std::string& snapshot, int pings,
                   std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_H_
