#include "serve_bootstrap.h"

#include <cstdio>

#include "util/timing.h"

namespace ticl::tools {

namespace {

constexpr char kEngineFlagsUsage[] =
    "  --snapshot PATH    snapshot written by ticl_query --save-snapshot\n"
    "  --delta PATH       delta snapshot (ticl_query --apply-delta\n"
    "                     --save-snapshot) applied on top at start-up; may\n"
    "                     repeat, in chain order. The core index is\n"
    "                     maintained incrementally, not rebuilt\n"
    "  --mmap             serve the snapshot zero-copy via mmap (needs a\n"
    "                     v2 file; uses its embedded core index if any)\n"
    "  --threads N        worker threads (default: hardware "
    "concurrency)\n"
    "  --cache N          LRU result-cache budget in cached community\n"
    "                     members (size-aware), 0 disables "
    "(default 1048576)\n";

void PrintUsage(const ToolUsage& usage) {
  std::printf("usage: %s --snapshot PATH [options]\n\n%s%s\n%s", usage.name,
              kEngineFlagsUsage, usage.flags, usage.footer);
}

bool ParseFlag(ArgReader& args, EngineFlags* flags,
               const ToolFlagParser& tool_flag) {
  const std::string& arg = args.arg();
  if (arg == "--snapshot") return args.Take(&flags->snapshot_path);
  if (arg == "--delta") return args.TakeAppend(&flags->delta_paths);
  if (arg == "--mmap") {
    flags->mmap = true;
    return true;
  }
  if (arg == "--threads") return args.TakeUnsigned(&flags->engine.num_threads);
  if (arg == "--cache") {
    return args.TakeUnsigned(&flags->engine.cache_member_budget);
  }
  return tool_flag(args);
}

}  // namespace

int ParseCommandLine(int argc, char** argv, const ToolUsage& usage,
                     const ToolFlagParser& tool_flag, EngineFlags* flags) {
  std::string error;
  ArgReader args(argc, argv, &error);
  bool help = argc == 1;
  while (args.Next()) {
    if (args.arg() == "--help" || args.arg() == "-h") {
      help = true;
    } else if (!ParseFlag(args, flags, tool_flag)) {
      std::fprintf(stderr, "error: %s\n\n", error.c_str());
      PrintUsage(usage);
      return 1;
    }
  }
  if (help) {
    PrintUsage(usage);
    return 0;
  }
  if (flags->snapshot_path.empty()) {
    std::fprintf(stderr, "error: --snapshot is required\n\n");
    PrintUsage(usage);
    return 1;
  }
  return kServe;
}

std::unique_ptr<QueryEngine> OpenEngine(const EngineFlags& flags) {
  const auto fail = [](const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    return nullptr;
  };
  std::string error;
  WallTimer start_timer;
  auto engine = QueryEngine::OpenSnapshot(
      flags.snapshot_path,
      flags.mmap ? SnapshotLoadMode::kMmap : SnapshotLoadMode::kCopy,
      flags.engine, &error);
  if (engine == nullptr) return fail(error);
  // Delta chain: each file names its parent by fingerprint, so a
  // mis-ordered chain fails with a chain error before any mutation;
  // ApplyDelta maintains the core index incrementally instead of
  // re-running the decomposition.
  for (const std::string& delta_path : flags.delta_paths) {
    if (!engine->ApplyDeltaSnapshotFile(delta_path, &error)) {
      return fail(error);
    }
  }
  std::fprintf(stderr,
               "opened %s in %.3fs (n=%u m=%llu, %s, core index "
               "(k_max=%u) %s), %u worker threads\n",
               flags.snapshot_path.c_str(), start_timer.ElapsedSeconds(),
               engine->graph().num_vertices(),
               static_cast<unsigned long long>(engine->graph().num_edges()),
               engine->snapshot_mapped() ? "mmap zero-copy" : "copy-load",
               engine->core_index().degeneracy(),
               engine->index_from_snapshot() ? "from snapshot" : "rebuilt",
               engine->num_threads());
  return engine;
}

std::string CacheSummary(const EngineStats& stats) {
  char buffer[400];
  std::snprintf(buffer, sizeof(buffer),
                "cache %llu hits (%llu negative) / %llu misses / %llu "
                "coalesced / %llu uncacheable, %llu deltas applied (%llu "
                "entries kept / %llu evicted by partial invalidation), "
                "%llu members in %llu formatted bytes resident",
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_negative_hits),
                static_cast<unsigned long long>(stats.cache_misses),
                static_cast<unsigned long long>(stats.cache_coalesced),
                static_cast<unsigned long long>(stats.cache_uncacheable),
                static_cast<unsigned long long>(stats.deltas_applied),
                static_cast<unsigned long long>(stats.cache_partial_kept),
                static_cast<unsigned long long>(stats.cache_partial_evicted),
                static_cast<unsigned long long>(stats.cache_charge),
                static_cast<unsigned long long>(stats.cache_bytes));
  return buffer;
}

}  // namespace ticl::tools
