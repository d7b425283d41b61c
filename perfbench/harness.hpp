// Shared declarations of the af_perfbench harness (perfbench/README.md).
//
// The harness drives the public af::Planner API and, for the traced run,
// the public entry points of each layer underneath it. It never reaches
// into the library's internals: every number it reports is timed or
// counted from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/planner.hpp"
#include "diffusion/realization.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "storage/mapped_dataset.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Mode = std::variant<af::MinimizeSpec, af::MaximizeSpec>;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One named workload: which dataset analog it runs on, in which input
/// format, and how many paper-protocol pairs its input step samples.
struct Workload {
  std::string name;
  /// core/datasets spec name (wiki | hepph | youtube).
  std::string dataset;
  /// .af1 container (true) or text edge list parsed by graph/io (false).
  bool af1 = true;
  std::size_t pairs = 0;
  /// Open-loop plan_async ladder (true) or one closed-loop client.
  bool serving = false;
  /// Closed loop: how many times a session asks its warm follow-ups.
  std::size_t warm_rounds = 1;
};

/// Looks a workload up by name; nullptr when unknown.
const Workload* find_workload(const std::string& name);

/// One step of a closed-loop pair session.
struct SweepStep {
  bool cold = false;
  Mode mode;
};

/// The per-pair session of a closed-loop workload.
std::vector<SweepStep> sweep_for(const Workload& w);

struct Pair {
  af::NodeId s = 0;
  af::NodeId t = 0;
};

/// An opened dataset with its planner. Members are destroyed in reverse
/// order, so the planner dies before the graph it reads.
struct Dataset {
  std::unique_ptr<af::storage::MappedDataset> mapped;
  std::unique_ptr<af::LoadedGraph> loaded;
  const af::Graph* graph = nullptr;
  std::unique_ptr<af::Planner> planner;
  /// graph/io parse (text input) or .af1 open (container input).
  double parse_s = 0.0;
  double open_s = 0.0;
  /// Planner construction (Planner(graph) or Planner::from_mapped).
  double planner_s = 0.0;
  double total_s = 0.0;
};

/// Opens the workload's cached graph (parse or .af1 open, timed).
Dataset open_graph(const Workload& w, const std::string& dir);

/// open_graph, then constructs the planner (timed).
Dataset open_dataset(const Workload& w, const std::string& dir,
                     const af::PlannerOptions& options);

/// Planner options every workload shares; serving adds a cache budget.
af::PlannerOptions planner_options(const Workload& w);

std::vector<Pair> read_pairs(const std::string& path);

/// The file holding the pair pool in input cache `dir`.
std::string pairs_path(const std::string& dir);

/// Writes the workload's fixed input into the cache `dir`: its dataset
/// analog graph and its paper-protocol pair pool.
void generate_inputs(const Workload& w, const std::string& dir);

/// One answered query and everything measured about it.
struct Record {
  /// Closed loop: the pair session the query belongs to, and which round
  /// of its warm follow-ups (0 for the cold query).
  std::size_t session = 0;
  std::size_t round = 0;
  std::size_t pair = 0;
  /// Index into the sweep (closed loop) or the serving mode table.
  std::size_t step = 0;
  bool cold = false;
  af::QuerySpec spec;
  af::PlanResult result;
  /// Closed loop: the plan() call. Serving: scheduled send → completion.
  double latency_s = 0.0;
  /// Serving only: ladder rung, and how late the generator sent it.
  int rung = -1;
  double lag_s = 0.0;
  /// Serving only: the query was a cache miss on a pair served before
  /// (its state was evicted and had to be rebuilt).
  bool rebuilt = false;
  bool passed = false;
  std::string failure;
};

/// Median plus the highest percentile, up to p90, with at least ten
/// samples beyond it (the median itself when there are fewer than 21).
struct Dist {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
};
Dist summarize(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// Answer checks shared by every workload; fills rec.passed/failure.
void check_answer(const af::Graph& g, Record& rec);

/// Closed loop: one client, sync plan(), whole pair sessions over a
/// seeded shuffle of the pool until `seconds` have elapsed.
struct ClosedLoopRun {
  std::vector<Record> records;
  double loop_s = 0.0;
  std::uint64_t cache_bytes_peak = 0;
};
ClosedLoopRun run_closed_loop(Dataset& d, const Workload& w,
                              const std::vector<Pair>& pairs,
                              std::uint64_t seed, double seconds);

/// Open-loop Poisson ladder into plan_async.
struct Rung {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  Dist latency;
  std::size_t misses = 0;
  bool growing_backlog = false;
  bool meets_limit = false;
};
struct ServingRun {
  std::vector<Record> records;
  std::vector<Rung> rungs;
  double max_rate_qps = 0.0;
  std::uint64_t cache_bytes_peak = 0;
  std::uint64_t submitted = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t rejected = 0;
  std::uint64_t evictions = 0;
  std::size_t identity_checked = 0;
  std::size_t identity_mismatches = 0;
};
/// The fixed ladder: offered rate (q/s) and share of the run per rung,
/// low rate first, then high rate, then overload; and the tail latency
/// limit.
struct RungPlan {
  double qps;
  double share;
};
const std::vector<RungPlan>& serving_ladder();
constexpr std::size_t kLowRung = 0;
constexpr std::size_t kHighRung = 1;
constexpr std::size_t kOverloadRung = 2;
double serving_latency_limit_s();
ServingRun run_serving(Dataset& d, const std::vector<Pair>& pairs,
                       std::uint64_t seed, double seconds);
/// Compares every served answer with a sync plan() of the same spec on a
/// fresh planner (DESIGN.md §10); mismatches fail the answer.
void check_bit_identity(Dataset& d, ServingRun& run);

/// f̂(I)/(α·p̂max) for each distinct kOk minimize answer, from a
/// fixed-seed realization sample drawn outside every timed region.
std::vector<double> evaluate_quality(const Dataset& d,
                                     const af::SelectionSampler& index,
                                     const std::vector<Record>& records);

/// Result of the traced replay (replay.cpp).
struct TraceResult {
  std::map<std::string, double> metrics;
  std::size_t spans = 0;
  bool attribution_ok = false;
  bool family_accounts_ok = false;
  double attribution_gap_s = 0.0;
};

/// Replays `untraced` (answered by the planner, in order) through the
/// layers' public entry points with spans around every call, and writes
/// the spans to `spans_path` as CSV.
TraceResult replay_traced(const Dataset& d, const af::SelectionSampler& index,
                          double index_build_s,
                          const std::vector<Record>& untraced,
                          const std::string& spans_path);

}  // namespace perfbench
