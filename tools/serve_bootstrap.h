// Start-up shared by the serving tools (ticl_serve and ticl_served).
//
// Both open one QueryEngine over a snapshot plus a delta chain, configured
// by the same five flags: --snapshot, --delta, --mmap, --threads and
// --cache. Each flag's usage text, strict parse and EngineOptions field
// are defined once here; a tool adds only its front-end flags. Every
// query is answered by Solve's kAuto dispatch.

#ifndef TICL_TOOLS_SERVE_BOOTSTRAP_H_
#define TICL_TOOLS_SERVE_BOOTSTRAP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.h"

#include "cli_parse.h"

namespace ticl::tools {

/// The engine half of a serving tool's command line.
struct EngineFlags {
  std::string snapshot_path;
  std::vector<std::string> delta_paths;  // applied in chain order
  bool mmap = false;
  /// --threads and --cache.
  EngineOptions engine;
};

/// A serving tool's usage: "usage: NAME --snapshot PATH [options]", the
/// engine flags, then `flags` (the tool's own) and, after a blank line,
/// `footer`.
struct ToolUsage {
  const char* name;
  const char* flags;
  const char* footer;
};

/// Parses the tool flag at args.arg(). Returns true when consumed; false
/// with the reader's error set on a bad value, or via args.Unknown() for a
/// flag the tool does not know.
using ToolFlagParser = std::function<bool(ArgReader& args)>;

/// ParseCommandLine's result when the tool should go on to serve.
inline constexpr int kServe = -1;

/// Parses argv: --help/-h, the engine flags into *flags, everything else
/// through `tool_flag`. Returns kServe, or the exit status after printing
/// what the user needs: 0 with the usage for --help or no arguments, 1
/// with the error and usage for a bad flag or a missing --snapshot.
int ParseCommandLine(int argc, char** argv, const ToolUsage& usage,
                     const ToolFlagParser& tool_flag, EngineFlags* flags);

/// Opens the snapshot (copy-loaded, or mapped with --mmap), applies the
/// --delta chain and prints the "opened ..." line to stderr. On an IO or
/// chain error prints it and returns nullptr; the tool then exits 2.
std::unique_ptr<QueryEngine> OpenEngine(const EngineFlags& flags);

/// The cache and delta counters of a tool's closing stats line: "cache N
/// hits (N negative) / N misses / N coalesced / N uncacheable, N deltas
/// applied (N entries kept / N evicted by partial invalidation), N
/// members in N formatted bytes resident".
std::string CacheSummary(const EngineStats& stats);

}  // namespace ticl::tools

#endif  // TICL_TOOLS_SERVE_BOOTSTRAP_H_
