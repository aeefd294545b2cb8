// ticl_query — command-line front end for the library.
//
// Load (or generate) a weighted graph, run one top-r influential community
// query, print the results as text or JSON, and validate them.
//
// Examples:
//   ticl_query --graph g.txt --weight-scheme pagerank --k 4 --r 5 --f sum
//   ticl_query --generate standin:dblp --k 4 --r 3 --s 20 --f avg
//              --non-overlapping --output json
//   ticl_query --graph g.txt --weights w.txt --k 2 --r 10 --f min
//
// Snapshot workflow (generate/weight once, query many times — see also
// ticl_serve for batch serving):
//   ticl_query --generate standin:dblp --save-snapshot dblp.snap
//   ticl_query --snapshot dblp.snap --k 4 --r 5 --f sum
//
// Dynamic-graph workflow (delta snapshots; the graph evolves without full
// rewrites):
//   ticl_query --snapshot dblp.snap --apply-delta edits.txt \
//       --save-snapshot dblp.d1.snap      # child records (parent fp, delta)
//   ticl_query --snapshot dblp.snap --delta dblp.d1.snap --k 4 --r 5 --f sum
//
// Exit status: 0 on success, 1 on usage errors, 2 on IO errors,
// 3 if result validation fails (library bug — please report).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algo/weights.h"
#include "core/search.h"
#include "core/verification.h"
#include "gen/chung_lu.h"
#include "gen/dataset_suite.h"
#include "graph/edge_list_io.h"
#include "graph/graph_delta.h"
#include "serve/core_index.h"
#include "serve/mapped_snapshot.h"
#include "serve/snapshot.h"

#include "cli_parse.h"

namespace {

struct CliOptions {
  std::string graph_path;
  std::string weights_path;
  std::string weight_scheme = "pagerank";
  std::string generate;  // "standin:<name>[@scale]" or "chung-lu:n,deg,gamma"
  std::string snapshot_path;       // load graph + weights from a snapshot
  std::vector<std::string> delta_paths;  // delta chain replayed onto it
  std::string apply_delta_path;    // text edit list applied before querying
  bool mmap = false;               // zero-copy view instead of a copy-load
  std::string save_snapshot_path;  // write the prepared graph and exit*
  bool snapshot_index = false;     // embed the CoreIndex when saving
  std::uint64_t seed = 0;
  ticl::Query query;
  std::string solver = "auto";
  double epsilon = 0.1;
  double alpha = 1.0;
  double beta = 1.0;
  std::string aggregation = "sum";
  unsigned threads = 1;
  std::string output = "text";
  bool help = false;
  /// *unless a query/solver flag was also given, in which case the query
  /// still runs after the save.
  bool query_requested = false;
};

void PrintUsage() {
  std::printf(
      "usage: ticl_query (--graph PATH | --generate SPEC) [options]\n"
      "\n"
      "input:\n"
      "  --graph PATH          SNAP-style edge list ('u v' per line)\n"
      "  --weights PATH        'vertex weight' per line (optional)\n"
      "  --weight-scheme S     pagerank|degree|uniform|lognormal "
      "(default pagerank;\n"
      "                        used when --weights is absent)\n"
      "  --generate SPEC       standin:<email|dblp|youtube|orkut|"
      "livejournal|friendster>[@scale]\n"
      "                        or chung-lu:<n>,<avg_degree>,<gamma>\n"
      "  --snapshot PATH       load graph + weights from a binary snapshot\n"
      "  --delta PATH          replay a delta snapshot onto --snapshot (may\n"
      "                        repeat; applied in order, parent fingerprints\n"
      "                        are verified)\n"
      "  --apply-delta PATH    apply a text edit list ('+ u v' insert,\n"
      "                        '- u v' delete, 'w v X' reweight) to the\n"
      "                        loaded graph before querying; with\n"
      "                        --save-snapshot the child is written as a\n"
      "                        delta snapshot recording (parent fingerprint,\n"
      "                        delta) instead of a full rewrite\n"
      "  --mmap                with --snapshot: zero-copy mmap view (needs a\n"
      "                        v2 file; uses its core index when embedded)\n"
      "  --save-snapshot PATH  write the prepared graph (weights included)\n"
      "                        as a snapshot; exits after saving unless a\n"
      "                        query flag is also given\n"
      "  --snapshot-index      embed the precomputed CoreIndex in the saved\n"
      "                        snapshot so serving skips the decomposition\n"
      "  --seed N              seed for random weight schemes/generators\n"
      "\n"
      "query:\n"
      "  --k N                 degree constraint (default 1)\n"
      "  --r N                 number of communities (default 1)\n"
      "  --s N                 size constraint (default: unconstrained)\n"
      "  --f NAME              min|max|sum|sum-surplus|avg|weight-density|"
      "balanced-density\n"
      "  --alpha X             sum-surplus parameter (default 1)\n"
      "  --beta X              weight-density parameter (default 1)\n"
      "  --non-overlapping     solve TONIC (disjoint results)\n"
      "\n"
      "solver:\n"
      "  --solver NAME         auto|naive|improved|approx|exact|local-greedy|"
      "local-random|\n"
      "                        min-peel|max-components (default auto); a\n"
      "                        solver that cannot answer the query exits 1\n"
      "  --epsilon X           approximation ratio for --solver approx\n"
      "  --threads N           parallel local search workers\n"
      "\n"
      "output:\n"
      "  --output FMT          text|json (default text)\n");
}

bool ParseFlag(ticl::tools::ArgReader& args, CliOptions* options) {
  const std::string& arg = args.arg();
  if (arg == "--help" || arg == "-h") {
    options->help = true;
    return true;
  }
  if (arg == "--graph") return args.Take(&options->graph_path);
  if (arg == "--weights") return args.Take(&options->weights_path);
  if (arg == "--weight-scheme") return args.Take(&options->weight_scheme);
  if (arg == "--generate") return args.Take(&options->generate);
  if (arg == "--snapshot") return args.Take(&options->snapshot_path);
  if (arg == "--delta") return args.TakeAppend(&options->delta_paths);
  if (arg == "--apply-delta") return args.Take(&options->apply_delta_path);
  if (arg == "--mmap") {
    options->mmap = true;
    return true;
  }
  if (arg == "--save-snapshot") return args.Take(&options->save_snapshot_path);
  if (arg == "--snapshot-index") {
    options->snapshot_index = true;
    return true;
  }
  if (arg == "--seed") return args.TakeUnsigned(&options->seed);
  if (arg == "--alpha") return args.TakeDouble(&options->alpha);
  if (arg == "--beta") return args.TakeDouble(&options->beta);
  if (arg == "--epsilon") return args.TakeDouble(&options->epsilon);
  if (arg == "--threads") return args.TakeUnsigned(&options->threads);
  if (arg == "--output") {
    if (!args.Take(&options->output)) return false;
    return options->output == "text" || options->output == "json" ||
           args.Invalid(options->output);
  }
  // The query and solver flags: with --save-snapshot, the query still runs.
  options->query_requested = true;
  if (arg == "--k") return args.TakeUnsigned(&options->query.k);
  if (arg == "--r") return args.TakeUnsigned(&options->query.r);
  if (arg == "--s") return args.TakeUnsigned(&options->query.size_limit);
  if (arg == "--f") return args.Take(&options->aggregation);
  if (arg == "--non-overlapping") {
    options->query.non_overlapping = true;
    return true;
  }
  if (arg == "--solver") return args.Take(&options->solver);
  return args.Unknown();
}

/// "" when `solver` can answer `query`, else why not (Solve would abort).
/// naive and approx answer exactly the queries auto gives to improved;
/// improved, min-peel and max-components the ones auto gives to them. The
/// other solvers answer every valid query, exact only below its subset
/// ceiling, which needs the graph and is checked once it is loaded.
std::string SolverFitProblem(ticl::SolverKind solver,
                             const ticl::Query& query) {
  using ticl::SolverKind;
  const SolverKind needs =
      solver == SolverKind::kNaive || solver == SolverKind::kApprox
          ? SolverKind::kImproved
          : solver;
  const char* requirement =
      needs == SolverKind::kImproved
          ? "a monotone aggregation (sum, or sum-surplus with alpha >= 0)"
      : needs == SolverKind::kMinPeel       ? "--f min"
      : needs == SolverKind::kMaxComponents ? "--f max"
                                            : nullptr;
  if (requirement == nullptr || ticl::AutoSolverFor(query) == needs) return "";
  return "--solver " + ticl::SolverKindName(solver) +
         " needs an unconstrained query (no --s) with " + requirement;
}

bool BuildGraph(const CliOptions& options, ticl::Graph* g,
                std::string* error) {
  if (!options.snapshot_path.empty()) {
    if (!options.generate.empty() || !options.graph_path.empty()) {
      *error = "--snapshot excludes --graph and --generate";
      return false;
    }
    return ticl::LoadSnapshotChain(options.snapshot_path, options.delta_paths,
                                   g, error);
  }
  if (!options.delta_paths.empty()) {
    *error = "--delta requires --snapshot (deltas replay onto a base "
             "snapshot)";
    return false;
  }
  if (!options.generate.empty()) {
    const std::string& spec = options.generate;
    if (spec.rfind("standin:", 0) == 0) {
      std::string name = spec.substr(8);
      double scale = 1.0;
      const std::size_t at = name.find('@');
      if (at != std::string::npos) {
        if (!ticl::tools::ParseDouble(name.substr(at + 1), &scale) ||
            !std::isfinite(scale) || scale <= 0.0) {
          *error = "bad stand-in scale in " + spec;
          return false;
        }
        name = name.substr(0, at);
      }
      for (const ticl::StandIn dataset : ticl::AllStandIns()) {
        if (ticl::StandInName(dataset) == name) {
          *g = ticl::GenerateStandIn(dataset, scale);
          return true;
        }
      }
      *error = "unknown stand-in dataset: " + name;
      return false;
    }
    if (spec.rfind("chung-lu:", 0) == 0) {
      // Checked against the generator's preconditions (average degree
      // > 0, 2 < gamma < 3), which it enforces by aborting.
      std::vector<std::string> fields(1);
      for (const char c : spec.substr(9)) {
        if (c == ',') {
          fields.emplace_back();
        } else {
          fields.back().push_back(c);
        }
      }
      unsigned long long n = 0;
      ticl::ChungLuOptions cl;
      if (fields.size() != 3 ||
          !ticl::tools::ParseUnsigned(fields[0], 0xFFFFFFFFull, &n) ||
          !ticl::tools::ParseDouble(fields[1], &cl.target_average_degree) ||
          !ticl::tools::ParseDouble(fields[2], &cl.gamma) ||
          !std::isfinite(cl.target_average_degree) ||
          cl.target_average_degree <= 0.0 ||
          !(cl.gamma > 2.0 && cl.gamma < 3.0)) {
        *error = "expected chung-lu:<n>,<avg_degree>,<gamma> with "
                 "avg_degree > 0 and 2 < gamma < 3";
        return false;
      }
      cl.num_vertices = static_cast<ticl::VertexId>(n);
      cl.seed = options.seed;
      *g = ticl::GenerateChungLu(cl);
      return true;
    }
    *error = "unknown --generate spec: " + spec;
    return false;
  }
  if (options.graph_path.empty()) {
    *error = "one of --graph, --generate or --snapshot is required";
    return false;
  }
  return ticl::LoadEdgeList(options.graph_path, g, error);
}

bool InstallWeights(const CliOptions& options, ticl::Graph* g,
                    std::string* error) {
  if (!options.weights_path.empty()) {
    return ticl::LoadWeights(options.weights_path, g, error);
  }
  // Snapshot weights win unless explicitly overridden with --weights.
  if (g->has_weights()) return true;
  const std::string& scheme = options.weight_scheme;
  if (scheme == "pagerank") {
    ticl::AssignWeights(g, ticl::WeightScheme::kPageRank, options.seed);
  } else if (scheme == "degree") {
    ticl::AssignWeights(g, ticl::WeightScheme::kDegree, options.seed);
  } else if (scheme == "uniform") {
    ticl::AssignWeights(g, ticl::WeightScheme::kUniform, options.seed);
  } else if (scheme == "lognormal") {
    ticl::AssignWeights(g, ticl::WeightScheme::kLogNormal, options.seed);
  } else {
    *error = "unknown weight scheme: " + scheme;
    return false;
  }
  return true;
}

void PrintText(const ticl::Query& query, const ticl::SearchResult& result) {
  std::printf("%s -> %zu communities in %.2f ms\n",
              ticl::QueryToString(query).c_str(), result.communities.size(),
              result.stats.elapsed_seconds * 1e3);
  for (std::size_t i = 0; i < result.communities.size(); ++i) {
    // Cap the listing; use --output json for complete member lists.
    std::printf("#%zu %s\n", i + 1,
                ticl::CommunityToString(result.communities[i], 32).c_str());
  }
}

void PrintJson(const ticl::Query& query, const ticl::SearchResult& result) {
  std::printf("{\n  \"query\": \"%s\",\n  \"elapsed_seconds\": %.6f,\n",
              ticl::QueryToString(query).c_str(),
              result.stats.elapsed_seconds);
  std::printf("  \"communities\": [\n");
  for (std::size_t i = 0; i < result.communities.size(); ++i) {
    const ticl::Community& c = result.communities[i];
    std::printf("    {\"influence\": %.17g, \"members\": [", c.influence);
    for (std::size_t j = 0; j < c.members.size(); ++j) {
      std::printf("%s%u", j == 0 ? "" : ", ", c.members[j]);
    }
    std::printf("]}%s\n", i + 1 < result.communities.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  std::string error;
  ticl::tools::ArgReader args(argc, argv, &error);
  while (args.Next()) {
    if (!ParseFlag(args, &options)) {
      std::fprintf(stderr, "error: %s\n\n", error.c_str());
      PrintUsage();
      return 1;
    }
  }
  if (options.help || argc == 1) {
    PrintUsage();
    return 0;
  }
  if (!ticl::ParseAggregation(options.aggregation, options.alpha,
                              options.beta, &options.query.aggregation)) {
    std::fprintf(stderr, "error: unknown aggregation: %s\n",
                 options.aggregation.c_str());
    return 1;
  }

  ticl::SolveOptions solve_options;
  if (!ticl::ParseSolverKind(options.solver, &solve_options.solver)) {
    std::fprintf(stderr, "error: unknown solver: %s\n",
                 options.solver.c_str());
    return 1;
  }
  solve_options.epsilon = options.epsilon;
  solve_options.local.num_threads = options.threads;
  std::string options_problem = ticl::ValidateSolveOptions(solve_options);
  if (options_problem.empty()) {
    options_problem = SolverFitProblem(solve_options.solver, options.query);
  }
  if (!options_problem.empty()) {
    std::fprintf(stderr, "error: %s\n", options_problem.c_str());
    return 1;
  }

  ticl::Graph graph;
  std::unique_ptr<ticl::MappedSnapshot> mapped;
  const ticl::Graph* query_graph = &graph;
  if (options.mmap) {
    if (options.snapshot_path.empty()) {
      std::fprintf(stderr, "error: --mmap requires --snapshot\n");
      return 1;
    }
    if (!options.generate.empty() || !options.graph_path.empty()) {
      std::fprintf(stderr, "error: --snapshot excludes --graph and "
                           "--generate\n");
      return 1;
    }
    if (!options.weights_path.empty()) {
      std::fprintf(stderr,
                   "error: --mmap serves the snapshot read-only; --weights "
                   "cannot be applied\n");
      return 1;
    }
    if (!options.delta_paths.empty() || !options.apply_delta_path.empty()) {
      std::fprintf(stderr,
                   "error: --mmap serves the snapshot read-only; drop --mmap "
                   "to apply deltas (the result is heap-owned anyway)\n");
      return 1;
    }
    mapped = ticl::MappedSnapshot::Open(options.snapshot_path, &error);
    if (mapped == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    if (!mapped->graph().has_weights()) {
      std::fprintf(stderr,
                   "error: snapshot has no vertex weights; re-save it from "
                   "a weighted graph\n");
      return 2;
    }
    query_graph = &mapped->graph();
    if (mapped->has_core_index()) {
      solve_options.core_index = &mapped->core_index();
    }
  } else if (!BuildGraph(options, &graph, &error) ||
             !InstallWeights(options, &graph, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }

  // Text delta: validated against (and recorded as a child of) the graph
  // as loaded, then applied so queries see the post-edit graph.
  ticl::GraphDelta text_delta;
  ticl::GraphFingerprint delta_parent;
  const bool have_text_delta = !options.apply_delta_path.empty();
  if (have_text_delta) {
    if (!ticl::LoadDeltaText(options.apply_delta_path, &text_delta, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    const std::string problem = ticl::ValidateDelta(graph, text_delta);
    if (!problem.empty()) {
      std::fprintf(stderr, "error: delta %s does not apply: %s\n",
                   options.apply_delta_path.c_str(), problem.c_str());
      return 1;
    }
    delta_parent = graph.fingerprint();
    graph = ticl::ApplyValidatedDelta(graph, text_delta);
  }

  if (!options.save_snapshot_path.empty()) {
    if (have_text_delta) {
      // Child release: record (parent fingerprint, delta), kilobytes
      // instead of a full CSR rewrite.
      if (options.snapshot_index) {
        std::fprintf(stderr,
                     "error: a delta snapshot carries only edits; "
                     "--snapshot-index does not apply\n");
        return 1;
      }
      if (!ticl::SaveDeltaSnapshot(options.save_snapshot_path, text_delta,
                                   delta_parent, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
      std::fprintf(stderr,
                   "saved delta snapshot %s (+%zu -%zu ~%zu edits, parent "
                   "n=%llu)\n",
                   options.save_snapshot_path.c_str(),
                   text_delta.insert_edges.size(),
                   text_delta.delete_edges.size(),
                   text_delta.weight_updates.size(),
                   static_cast<unsigned long long>(
                       delta_parent.num_vertices));
      if (!options.query_requested) return 0;
    } else {
      ticl::SaveSnapshotOptions save_options;
      std::unique_ptr<ticl::CoreIndex> built_index;
      if (options.snapshot_index) {
        if (mapped != nullptr && mapped->has_core_index()) {
          save_options.core_index = &mapped->core_index();
        } else {
          built_index = std::make_unique<ticl::CoreIndex>(*query_graph);
          save_options.core_index = built_index.get();
        }
      }
      if (!ticl::SaveSnapshot(options.save_snapshot_path, *query_graph,
                              save_options, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
      std::fprintf(stderr, "saved snapshot %s (v%u, n=%u m=%llu%s%s)\n",
                   options.save_snapshot_path.c_str(),
                   ticl::kSnapshotFormatVersion, query_graph->num_vertices(),
                   static_cast<unsigned long long>(query_graph->num_edges()),
                   query_graph->has_weights() ? ", weighted" : "",
                   options.snapshot_index ? ", core index embedded" : "");
      if (!options.query_requested) return 0;
    }
  }

  const std::string query_problem =
      ticl::ValidateQuery(options.query, *query_graph);
  if (!query_problem.empty()) {
    std::fprintf(stderr, "error: invalid query: %s\n", query_problem.c_str());
    return 1;
  }
  if (solve_options.solver == ticl::SolverKind::kExact) {
    // The exact solver's fit depends on the graph, so it is checked here
    // rather than in SolverFitProblem: past the subset ceiling Solve
    // would abort.
    ticl::ExactOptions exact;
    exact.core_index = solve_options.core_index;
    if (ticl::ExactSubsetCount(*query_graph, options.query, exact) >
        exact.max_subsets) {
      std::fprintf(stderr,
                   "error: --solver exact would enumerate more than %llu "
                   "subsets (its ceiling) on this graph; raise --k, lower "
                   "--s or use another solver\n",
                   static_cast<unsigned long long>(exact.max_subsets));
      return 1;
    }
  }

  const ticl::SearchResult result =
      ticl::Solve(*query_graph, options.query, solve_options);

  if (options.output == "json") {
    PrintJson(options.query, result);
  } else {
    PrintText(options.query, result);
  }

  const std::string problem =
      ticl::ValidateResult(*query_graph, options.query, result);
  if (!problem.empty()) {
    std::fprintf(stderr, "validation FAILED: %s\n", problem.c_str());
    return 3;
  }
  return 0;
}
