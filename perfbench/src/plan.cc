#include "plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>
#include <utility>

namespace perfbench {

namespace {

constexpr Agg kAllAggs[] = {Agg::kMin,           Agg::kMax,
                            Agg::kSum,           Agg::kSumSurplus,
                            Agg::kAvg,           Agg::kWeightDensity,
                            Agg::kBalancedDensity};

void RandomizeParams(Rng* rng, BenchQuery* q) {
  if (q->f == Agg::kSumSurplus) q->alpha = 0.5 + 1.5 * rng->Unit();
  if (q->f == Agg::kWeightDensity) q->beta = 0.5 + 1.5 * rng->Unit();
}

BenchQuery Make(Agg f, bool tonic, std::uint32_t k, std::uint32_t r,
                std::uint32_t s = 0) {
  BenchQuery q;
  q.f = f;
  q.tonic = tonic;
  q.k = k;
  q.r = r;
  q.s = s;
  return q;
}

// solve-mix: every aggregation x TIC/TONIC x constrained or not, each at
// k = 20 and k = 28, one with r from the low band (1-4) and one from the
// high band (6-10). The grid of (class, k, r, s) and the order in which it
// is sent are fixed, so every seed asks for the same solver work and
// schedules it the same way on the four connections (r drives the cost of
// sum TIC quadratically, and a late heavy query would leave three
// connections idle); the seed draws alpha and beta. The round goes out
// high band first.
void PlanSolveMix(Rng* rng, Plan* plan) {
  std::uint32_t c = 0;
  std::vector<bool> high_band;
  for (const Agg f : kAllAggs) {
    for (const bool tonic : {false, true}) {
      for (const bool constrained : {false, true}) {
        for (const std::uint32_t k : {20u, 28u}) {
          const bool high = (k == 20) == (c % 2 == 0);
          const std::uint32_t r = high ? 6 + c % 5 : 1 + c % 4;
          BenchQuery q = Make(f, tonic, k, r, constrained ? k + 20 : 0);
          RandomizeParams(rng, &q);
          plan->queries.push_back(q);
          high_band.push_back(high);
        }
        ++c;
      }
    }
  }
  // Size-constrained local search once more at k = 24, r cycling 1-10.
  std::uint32_t cycle = 0;
  for (const Agg f : kAllAggs) {
    if (f == Agg::kBalancedDensity) continue;  // always empty at s = 44
    for (const bool tonic : {false, true}) {
      BenchQuery q = Make(f, tonic, 24, 1 + cycle++ % 10, 44);
      RandomizeParams(rng, &q);
      plan->queries.push_back(q);
      high_band.push_back(q.r >= 6);
    }
  }
  // Cheap polynomial solves (min-peel, max-components, improved TONIC;
  // 5-35 ms, mostly k-core seeding from the index) at six more k-levels.
  // They are 36 of the round's 108 queries and put its median latency in
  // a dense band instead of between two sparse clusters.
  constexpr std::pair<Agg, bool> kCheap[] = {
      {Agg::kMin, false}, {Agg::kMin, true}, {Agg::kMax, false},
      {Agg::kMax, true},  {Agg::kSum, true}, {Agg::kSumSurplus, true}};
  for (const std::uint32_t k : {16u, 24u, 32u, 36u, 40u, 44u}) {
    for (const auto& [f, tonic] : kCheap) {
      BenchQuery q = Make(f, tonic, k, 1 + cycle++ % 10);
      RandomizeParams(rng, &q);
      plan->queries.push_back(q);
      high_band.push_back(false);
    }
  }
  // The known LocalSearch fault (see BenchQuery::known_fault). These
  // inputs do not depend on the seed, so every round fails exactly these
  // four.
  for (const auto& [tonic, k, r] :
       {std::tuple{false, 4u, 1u}, std::tuple{false, 6u, 10u},
        std::tuple{true, 4u, 10u}, std::tuple{true, 6u, 1u}}) {
    BenchQuery q = Make(Agg::kBalancedDensity, tonic, k, r);
    q.known_fault = true;
    plan->queries.push_back(q);
    high_band.push_back(false);
  }
  for (std::uint32_t i = 0; i < plan->queries.size(); ++i) {
    plan->round_order.push_back(i);
  }
  std::stable_sort(plan->round_order.begin(), plan->round_order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return high_band[a] && !high_band[b];
                   });
}

// Cheap-to-solve queries with small replies (< ~5 KB) from template
// `kind`, all finishing within tens of milliseconds on dblp@40.
BenchQuery SmallQuery(std::uint32_t kind, Rng* rng) {
  switch (kind) {
    case 0:
      return Make(Agg::kMin, false, rng->Between(8, 48), rng->Between(1, 5));
    case 1:
      return Make(Agg::kMin, true, rng->Between(12, 48), rng->Between(1, 5));
    case 2:
      return Make(Agg::kMax, rng->Between(0, 1) == 1, rng->Between(40, 48),
                  rng->Between(1, 10));
    case 3:
      return Make(rng->Between(0, 1) == 1 ? Agg::kSum : Agg::kSumSurplus,
                  true, rng->Between(40, 48), rng->Between(1, 10));
    case 4:
      return Make(rng->Between(0, 1) == 1 ? Agg::kAvg : Agg::kWeightDensity,
                  true, rng->Between(20, 36), rng->Between(1, 2));
    case 5: {
      constexpr Agg kConstrained[] = {Agg::kMin, Agg::kMax, Agg::kSum,
                                      Agg::kAvg};
      const std::uint32_t k = rng->Between(20, 32);
      return Make(kConstrained[rng->Between(0, 3)], false, k,
                  rng->Between(1, 2), k + 20);
    }
    default:
      return Make(Agg::kBalancedDensity, rng->Between(0, 1) == 1,
                  rng->Between(16, 40), rng->Between(1, 10));
  }
}

// Adds `q` unless an identical request is already in the set.
bool AddDistinct(const BenchQuery& q, std::set<std::string>* seen,
                 std::vector<BenchQuery>* out) {
  if (!seen->insert(RequestLine(q, 0)).second) return false;
  out->push_back(q);
  return true;
}

void PlanConnOrders(Rng* rng, std::uint32_t connections, Plan* plan) {
  for (std::uint32_t c = 0; c < connections; ++c) {
    std::vector<std::uint32_t> order;
    for (std::uint32_t i = 0; i < plan->queries.size(); ++i) {
      order.push_back(i);
    }
    rng->Shuffle(&order);
    plan->conn_orders.push_back(std::move(order));
  }
}

// hit-storm: kHotReaders connections cycle through 19 hot queries. 14 are
// whole-component TONIC replies: at k <= 8 the k-core of dblp@40 is one
// component, so the reply is that component whatever f and r are (754,
// 441, 276, 186 and 133 KB at k = 4, 5, 6, 7, 8; 4-18 ms to format and
// send, cheap to solve). 5 are small replies from SmallQuery templates.
// On a shared 4-vCPU VM a sub-millisecond reply measures thread wake-ups
// more than the server: with 20 small replies in 24, p50 spread 37% over
// ten seeds while p99 spread 7%. So small replies are a minority here. The
// class counts put p50 in the middle of the 276 KB class (ranks 8-12 of
// 19) and p99 inside the 754 KB class (3 of 19). At 265-390 replies a
// second, a three-second window leaves 8-12 replies beyond its p99.
// The large entries hold 820k members, inside ticl_served's default
// result-cache budget of 2^20 (a set larger than the budget thrashes the
// LRU and every request re-solves). The k-levels and counts are fixed, so
// every seed moves the same bytes per pass; the seed draws f, r and the
// small queries.
void PlanHitStorm(Rng* rng, Plan* plan) {
  std::set<std::string> seen;
  constexpr Agg kWhole[] = {Agg::kMax, Agg::kSum, Agg::kSumSurplus};
  constexpr std::pair<std::uint32_t, std::size_t> kWholeCounts[] = {
      {4, 3}, {5, 4}, {6, 5}, {7, 1}, {8, 1}};
  for (const auto& [k, count] : kWholeCounts) {
    const std::size_t want = plan->queries.size() + count;
    while (plan->queries.size() < want) {
      BenchQuery q = Make(kWhole[rng->Between(0, 2)], true, k,
                          rng->Between(1, 10));
      RandomizeParams(rng, &q);
      AddDistinct(q, &seen, &plan->queries);
    }
  }
  // min TIC, max, avg / weight-density, size-constrained, and an empty
  // balanced-density answer (negative cache).
  for (const std::uint32_t kind : {0u, 2u, 4u, 5u, 6u}) {
    BenchQuery q;
    do {
      q = SmallQuery(kind, rng);
      RandomizeParams(rng, &q);
    } while (!AddDistinct(q, &seen, &plan->queries));
  }
  PlanConnOrders(rng, kHotReaders, plan);
  plan->num_deltas = kProbeDeltas;
  plan->window_s = 3.0;
}

// churn: 8 hot queries at k <= 10 (below the delta's core cut, evicted by
// every delta and re-solved) and 8 at k >= 20 (kept by partial
// invalidation). The k-levels are fixed, so every seed re-solves and sends
// the same amount per delta; the seed draws r and the aggregation variants.
// Two of the 16 replies are whole components (about 100 and 76 KB): with
// one request in eight that large, p99 falls inside their latency
// distribution rather than at the edge of it. kHotReaders connections
// read; one more sends one delta every two seconds. Each delta stalls
// about 15-20 reads (the apply, and re-solves of the evicted entries).
// At one delta a second those were 0.4% of a second's reads on a quiet
// host and near 1% on a slow one, where p99 jumped from the large-reply
// tail into the stalls (2 ms to 9 ms); at one every two seconds they stay
// well under 1%.
void PlanChurn(Rng* rng, double seconds, Plan* plan) {
  std::set<std::string> seen;
  auto add = [&](BenchQuery q) {
    RandomizeParams(rng, &q);
    AddDistinct(q, &seen, &plan->queries);
  };
  const auto either = [&](Agg a, Agg b) {
    return rng->Between(0, 1) == 1 ? a : b;
  };
  for (const std::uint32_t k : {5u, 6u, 8u, 10u}) {
    add(Make(Agg::kMin, false, k, rng->Between(1, 5)));
  }
  for (const std::uint32_t k : {7u, 9u}) {
    add(Make(Agg::kMin, true, k, rng->Between(1, 3)));
  }
  add(Make(either(Agg::kSum, Agg::kSumSurplus), true, 9, rng->Between(1, 3)));
  add(Make(Agg::kMax, true, 10, rng->Between(1, 3)));
  for (const std::uint32_t k : {20u, 32u}) {
    add(Make(Agg::kMin, false, k, rng->Between(1, 5)));
  }
  add(Make(Agg::kMin, true, 28, rng->Between(1, 3)));
  add(Make(Agg::kMax, false, 36, rng->Between(1, 5)));
  add(Make(Agg::kSum, true, 30, rng->Between(1, 5)));
  add(Make(either(Agg::kAvg, Agg::kWeightDensity), true, 24,
           rng->Between(1, 2)));
  add(Make(either(Agg::kSum, Agg::kAvg), false, 24, 1, 44));
  add(Make(Agg::kSum, false, 40, 1));
  PlanConnOrders(rng, kHotReaders, plan);
  plan->delta_interval_s = 2.0;
  plan->window_s = plan->delta_interval_s;
  plan->scheduled_deltas = static_cast<std::uint32_t>(
      std::max(1.0, std::floor(seconds / plan->delta_interval_s)));
  plan->num_deltas = std::max(kProbeDeltas, plan->scheduled_deltas);
}

}  // namespace

const char* AggName(Agg f) {
  switch (f) {
    case Agg::kMin:
      return "min";
    case Agg::kMax:
      return "max";
    case Agg::kSum:
      return "sum";
    case Agg::kSumSurplus:
      return "sum-surplus";
    case Agg::kAvg:
      return "avg";
    case Agg::kWeightDensity:
      return "weight-density";
    case Agg::kBalancedDensity:
      return "balanced-density";
  }
  return "?";
}

std::string RequestLine(const BenchQuery& q, std::uint64_t id) {
  char buffer[256];
  int n = std::snprintf(buffer, sizeof(buffer),
                        "{\"id\": %llu, \"k\": %u, \"r\": %u, \"f\": \"%s\"",
                        static_cast<unsigned long long>(id), q.k, q.r,
                        AggName(q.f));
  std::string line(buffer, n);
  if (q.s != 0) line += ", \"s\": " + std::to_string(q.s);
  if (q.tonic) line += ", \"non_overlapping\": true";
  if (q.f == Agg::kSumSurplus) {
    n = std::snprintf(buffer, sizeof(buffer), ", \"alpha\": %.17g", q.alpha);
    line.append(buffer, n);
  }
  if (q.f == Agg::kWeightDensity) {
    n = std::snprintf(buffer, sizeof(buffer), ", \"beta\": %.17g", q.beta);
    line.append(buffer, n);
  }
  line += "}\n";
  return line;
}

std::string Describe(const BenchQuery& q) {
  std::string out = q.tonic ? "TONIC" : "TIC";
  out += " k=" + std::to_string(q.k) + " r=" + std::to_string(q.r);
  if (q.s != 0) out += " s=" + std::to_string(q.s);
  out += " f=";
  out += AggName(q.f);
  return out;
}

bool MakePlan(const std::string& workload, std::uint64_t seed,
              double seconds, Plan* plan) {
  plan->workload = workload;
  plan->seed = seed;
  // Mix the workload name into the stream so two workloads never share
  // draws.
  std::uint64_t salt = 0;
  for (const char ch : workload) salt = salt * 131 + static_cast<unsigned char>(ch);
  Rng rng(seed * 0x9E3779B97F4A7C15ull + salt);
  if (workload == "solve-mix") {
    PlanSolveMix(&rng, plan);
    plan->num_deltas = kProbeDeltas;
  } else if (workload == "hit-storm") {
    PlanHitStorm(&rng, plan);
  } else if (workload == "churn") {
    PlanChurn(&rng, seconds, plan);
  } else {
    return false;
  }
  return true;
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint32_t Rng::Between(std::uint32_t lo, std::uint32_t hi) {
  return lo + static_cast<std::uint32_t>(Next() % (hi - lo + 1));
}

double Rng::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

}  // namespace perfbench
