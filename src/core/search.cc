#include "core/search.h"

#include "serve/core_index.h"
#include "util/check.h"

namespace ticl {

std::string SolverKindName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kAuto:
      return "auto";
    case SolverKind::kNaive:
      return "naive";
    case SolverKind::kImproved:
      return "improved";
    case SolverKind::kApprox:
      return "approx";
    case SolverKind::kExact:
      return "exact";
    case SolverKind::kLocalGreedy:
      return "local-greedy";
    case SolverKind::kLocalRandom:
      return "local-random";
    case SolverKind::kMinPeel:
      return "min-peel";
    case SolverKind::kMaxComponents:
      return "max-components";
  }
  TICL_CHECK_MSG(false, "unknown solver kind");
  return "";
}

bool ParseSolverKind(const std::string& name, SolverKind* kind) {
  // Driven by SolverKindName so a new SolverKind only needs the switch
  // above updated.
  static constexpr SolverKind kAll[] = {
      SolverKind::kAuto,       SolverKind::kNaive,
      SolverKind::kImproved,   SolverKind::kApprox,
      SolverKind::kExact,      SolverKind::kLocalGreedy,
      SolverKind::kLocalRandom, SolverKind::kMinPeel,
      SolverKind::kMaxComponents};
  for (const SolverKind candidate : kAll) {
    if (name == SolverKindName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

std::string ValidateSolveOptions(const SolveOptions& options) {
  // `!(in range)` instead of `out of range` so NaN fails too.
  if (!(options.epsilon >= 0.0 && options.epsilon < 1.0)) {
    return "epsilon must be in [0, 1) (got " +
           std::to_string(options.epsilon) + ")";
  }
  return "";
}

SolverKind AutoSolverFor(const Query& query) {
  if (!query.size_constrained()) {
    if (query.aggregation.kind == Aggregation::kMin) {
      return SolverKind::kMinPeel;
    }
    if (query.aggregation.kind == Aggregation::kMax) {
      return SolverKind::kMaxComponents;
    }
    if (IsMonotoneUnderRemoval(query.aggregation)) {
      return SolverKind::kImproved;
    }
  }
  return SolverKind::kLocalGreedy;
}

SearchResult Solve(const Graph& g, const Query& query,
                   const SolveOptions& options) {
  // A CoreIndex seeds the solvers with precomputed k-cores; one built for a
  // different graph would silently return wrong communities. The
  // fingerprint (n, 2m, CSR hash) makes the mismatch loud, and unlike
  // pointer identity it accepts an index deserialized from a snapshot or
  // built from an identical copy of the graph.
  if (options.core_index != nullptr) {
    TICL_CHECK_MSG(
        options.core_index->fingerprint() == g.fingerprint(),
        "SolveOptions::core_index was built for a different graph");
  }
  SolverKind solver = options.solver;
  if (solver == SolverKind::kAuto) solver = AutoSolverFor(query);
  switch (solver) {
    case SolverKind::kAuto:
      break;  // unreachable
    case SolverKind::kNaive:
      return NaiveSearch(g, query, options.core_index);
    case SolverKind::kImproved: {
      ImprovedOptions improved;
      improved.epsilon = 0.0;
      improved.core_index = options.core_index;
      return ImprovedSearch(g, query, improved);
    }
    case SolverKind::kApprox: {
      ImprovedOptions improved;
      improved.epsilon = options.epsilon;
      improved.core_index = options.core_index;
      return ImprovedSearch(g, query, improved);
    }
    case SolverKind::kExact: {
      ExactOptions exact;
      exact.core_index = options.core_index;
      return ExactSearch(g, query, exact);
    }
    case SolverKind::kLocalGreedy: {
      LocalSearchOptions local = options.local;
      local.greedy = true;
      local.core_index = options.core_index;
      return LocalSearch(g, query, local);
    }
    case SolverKind::kLocalRandom: {
      LocalSearchOptions local = options.local;
      local.greedy = false;
      local.core_index = options.core_index;
      return LocalSearch(g, query, local);
    }
    case SolverKind::kMinPeel:
      return MinPeelSearch(g, query, options.core_index);
    case SolverKind::kMaxComponents:
      return MaxComponentsSearch(g, query, options.core_index);
  }
  TICL_CHECK_MSG(false, "unknown solver kind");
  return {};
}

}  // namespace ticl
