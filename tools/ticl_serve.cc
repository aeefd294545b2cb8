// ticl_serve — batch query serving over a saved snapshot.
//
// Loads a snapshot once, builds the QueryEngine (core index + LRU result
// cache + thread pool), then answers a JSONL stream of queries: one JSON
// object per input line, one JSON result object per output line, in input
// order. A throughput summary goes to stderr so stdout stays pure JSONL.
//
// Query lines (unknown fields ignored; all fields optional except k/r
// defaults match ticl_query):
//   {"id": "q1", "k": 4, "r": 5, "f": "sum"}
//   {"id": 2, "k": 4, "r": 3, "s": 20, "f": "avg", "non_overlapping": true}
//   {"k": 2, "r": 1, "f": "sum-surplus", "alpha": 0.5}
//
// Result lines:
//   {"id": "q1", "query": "TIC k=4 r=5 f=sum", "cached": false,
//    "elapsed_seconds": 0.0123,
//    "communities": [{"influence": 42.0, "members": [1, 2, 3]}]}
// or, for a malformed/invalid line:
//   {"id": "q1", "error": "...", "kind": "parse"}
// "elapsed_seconds" is the solve time of the answer; a cached answer
// ("cached": true) repeats the time of the solve that produced it. Time
// request latency at the client.
//
// Examples:
//   ticl_query --generate standin:dblp --save-snapshot dblp.snap \
//       --snapshot-index
//   ticl_serve --snapshot dblp.snap --mmap --queries batch.jsonl --threads 8
//   cat batch.jsonl | ticl_serve --snapshot dblp.snap
//
// With --mmap the snapshot (format v2) is served zero-copy straight from
// the mapping, and an embedded core index skips the start-up
// decomposition entirely — cold start does no work proportional to the
// graph beyond one validation pass.
//
// Exit status: 0 on success, 1 on usage errors, 2 on IO errors,
// 3 if any result fails validation (library bug — please report),
// 4 if any query line was malformed or invalid (remaining lines are
// still answered).

#include <cstdio>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/verification.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "util/timing.h"

#include "serve_bootstrap.h"

namespace {

struct CliOptions {
  ticl::tools::EngineFlags engine;
  std::string queries_path = "-";  // "-" = stdin
  unsigned repeat = 1;
  bool validate = true;
};

constexpr ticl::tools::ToolUsage kUsage = {
    "ticl_serve",
    "  --queries PATH     JSONL query file, or '-' for stdin (default -)\n"
    "  --repeat N         run the batch N times (cache warm-up demo)\n"
    "  --no-validate      skip per-result ValidateResult\n",
    "Query lines: {\"id\": ..., \"k\": 4, \"r\": 5, \"s\": 0,\n"
    "              \"f\": \"sum\", \"alpha\": 1.0, \"beta\": 1.0,\n"
    "              \"non_overlapping\": false}\n"};

bool ParseFlag(ticl::tools::ArgReader& args, CliOptions* options) {
  const std::string& arg = args.arg();
  if (arg == "--queries") return args.Take(&options->queries_path);
  if (arg == "--repeat") return args.TakePositive(&options->repeat);
  if (arg == "--no-validate") {
    options->validate = false;
    return true;
  }
  return args.Unknown();
}

// JSON parsing and formatting live in src/serve/protocol.{h,cc}, shared
// byte-for-byte with the network front end (tools/ticl_served) — the
// batch and streaming paths speak the same language by construction.

struct PendingQuery {
  std::string id_json;
  ticl::Query query;
  std::future<ticl::EngineResponse> future;
};

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  const int parsed = ticl::tools::ParseCommandLine(
      argc, argv, kUsage,
      [&options](ticl::tools::ArgReader& args) {
        return ParseFlag(args, &options);
      },
      &options.engine);
  if (parsed != ticl::tools::kServe) return parsed;
  const auto engine = ticl::tools::OpenEngine(options.engine);
  if (engine == nullptr) return 2;

  std::FILE* in = stdin;
  if (options.queries_path != "-") {
    in = std::fopen(options.queries_path.c_str(), "r");
    if (in == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   options.queries_path.c_str());
      return 2;
    }
  }

  // Read the whole batch up front (it is line-oriented and tiny relative
  // to the graph) so submission saturates the pool immediately.
  std::vector<std::string> lines;
  {
    std::string line;
    int ch;
    while ((ch = std::fgetc(in)) != EOF) {
      if (ch == '\n') {
        lines.push_back(std::move(line));
        line.clear();
      } else {
        line.push_back(static_cast<char>(ch));
      }
    }
    if (!line.empty()) lines.push_back(std::move(line));
  }
  if (in != stdin) std::fclose(in);

  std::string error;
  bool had_bad_input = false;
  bool had_validation_failure = false;
  std::size_t answered = 0;
  ticl::WallTimer batch_timer;
  for (unsigned round = 0; round < options.repeat; ++round) {
    std::vector<PendingQuery> pending;
    pending.reserve(lines.size());
    std::size_t line_number = 0;
    for (const std::string& line : lines) {
      ++line_number;
      // Skip blanks and comment lines.
      std::size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;

      PendingQuery entry;
      if (!ticl::ParseQueryLine(line, line_number, &entry.query,
                                &entry.id_json, &error)) {
        std::fputs(ticl::FormatErrorLine(entry.id_json, error,
                                         ticl::kErrorKindParse)
                       .c_str(),
                   stdout);
        had_bad_input = true;
        continue;
      }
      const std::string problem = engine->Validate(entry.query);
      if (!problem.empty()) {
        std::fputs(ticl::FormatErrorLine(entry.id_json,
                                         "invalid query: " + problem,
                                         ticl::kErrorKindInvalid)
                       .c_str(),
                   stdout);
        had_bad_input = true;
        continue;
      }
      entry.future = engine->Submit(entry.query);
      pending.push_back(std::move(entry));
    }

    for (PendingQuery& entry : pending) {
      const ticl::EngineResponse response = entry.future.get();
      std::fputs(ticl::FormatResultLine(
                     entry.id_json, entry.query,
                     response.result->stats.elapsed_seconds,
                     response.cache_hit, *response.communities_json)
                     .c_str(),
                 stdout);
      ++answered;
      if (options.validate) {
        const std::string problem = ticl::ValidateResult(
            engine->graph(), entry.query, *response.result);
        if (!problem.empty()) {
          std::fprintf(stderr, "validation FAILED (id %s): %s\n",
                       entry.id_json.c_str(), problem.c_str());
          had_validation_failure = true;
        }
      }
    }
  }
  const double batch_seconds = batch_timer.ElapsedSeconds();

  std::fprintf(stderr, "%zu queries in %.3fs (%.1f queries/s), %s\n",
               answered, batch_seconds,
               batch_seconds > 0.0 ? answered / batch_seconds : 0.0,
               ticl::tools::CacheSummary(engine->stats()).c_str());

  if (had_validation_failure) return 3;
  if (had_bad_input) return 4;
  return 0;
}
