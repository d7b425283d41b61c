// Workload table, input generation and opening, statistics and answer
// checks of the af_perfbench harness.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/datasets.hpp"
#include "core/pair_sampler.hpp"
#include "graph/weights.hpp"
#include "harness.hpp"
#include "storage/convert.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

const std::vector<Workload>& workloads() {
  // youtube's warm follow-ups take ~7 ms against a ~1.3 s cold query, so a
  // session asks them five times to give them as many samples as the cold
  // queries get seconds.
  static const std::vector<Workload> kWorkloads = {
      {"youtube_cold", "youtube", /*af1=*/true, /*pairs=*/10,
       /*serving=*/false, /*warm_rounds=*/5},
      {"hepph_sweep", "hepph", /*af1=*/false, /*pairs=*/8,
       /*serving=*/false, /*warm_rounds=*/1},
      {"serving_zipf", "wiki", /*af1=*/true, /*pairs=*/64,
       /*serving=*/true},
  };
  return kWorkloads;
}

/// Mixes a name into a seed so every dataset and pool draws from its own
/// stream.
std::uint64_t dataset_seed(const std::string& name, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return af::SplitMix64(h ^ seed).next();
}

/// Seeds the fixed dataset analogs (ICDCS 2019, July 7).
constexpr std::uint64_t kGraphSeed = 20190707;

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<SweepStep> sweep_for(const Workload& w) {
  using af::MaximizeSpec;
  using af::MinimizeSpec;
  if (w.name == "youtube_cold") {
    return {{true, MinimizeSpec{.alpha = 0.1}},
            {false, MaximizeSpec{.budget = 16, .realizations = 50'000}},
            {false, MinimizeSpec{.alpha = 0.3}}};
  }
  // hepph_sweep: the Fig. 3 α-sweep, then budgeted maximize.
  return {{true, MinimizeSpec{.alpha = 0.1}},
          {false, MinimizeSpec{.alpha = 0.3}},
          {false, MinimizeSpec{.alpha = 0.5}},
          {false, MaximizeSpec{.budget = 4, .realizations = 50'000}},
          {false, MaximizeSpec{.budget = 16, .realizations = 50'000}}};
}

af::PlannerOptions planner_options(const Workload& w) {
  af::PlannerOptions opts;
  opts.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                         1, 4);
  opts.async_workers = opts.threads;
  if (w.serving) {
    // Below the hot set's footprint, so eviction and rebuild happen under
    // load; deep enough a queue that no query is ever refused.
    opts.cache_budget_bytes = 8ULL << 20;
    opts.async_queue_depth = 1u << 16;
  }
  return opts;
}

Dataset open_graph(const Workload& w, const std::string& dir) {
  Dataset d;
  const auto t0 = Clock::now();
  if (w.af1) {
    d.mapped = std::make_unique<af::storage::MappedDataset>(dir + "/graph.af1");
    d.graph = &d.mapped->graph();
    d.open_s = seconds_between(t0, Clock::now());
  } else {
    d.loaded = std::make_unique<af::LoadedGraph>(af::load_edge_list(
        dir + "/graph.txt", af::WeightScheme::inverse_degree()));
    d.graph = &d.loaded->graph;
    d.parse_s = seconds_between(t0, Clock::now());
  }
  return d;
}

Dataset open_dataset(const Workload& w, const std::string& dir,
                     const af::PlannerOptions& options) {
  Dataset d = open_graph(w, dir);
  const auto t0 = Clock::now();
  d.planner = d.mapped ? af::Planner::from_mapped(*d.mapped, options)
                       : std::make_unique<af::Planner>(*d.graph, options);
  d.planner_s = seconds_between(t0, Clock::now());
  d.total_s = d.parse_s + d.open_s + d.planner_s;
  return d;
}

std::string pairs_path(const std::string& dir) { return dir + "/pairs.txt"; }

std::vector<Pair> read_pairs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Pair> pairs;
  std::uint64_t s = 0;
  std::uint64_t t = 0;
  double est = 0.0;
  while (in >> s >> t >> est) {
    pairs.push_back({static_cast<af::NodeId>(s), static_cast<af::NodeId>(t)});
  }
  if (pairs.empty()) throw std::runtime_error("no pairs in " + path);
  return pairs;
}

void generate_inputs(const Workload& w, const std::string& dir) {
  // The graph and its pair pool are fixed per workload, like the paper's
  // datasets; the workload seed draws the query stream over the pool.
  const std::string graph_path = dir + (w.af1 ? "/graph.af1" : "/graph.txt");
  if (!std::ifstream(graph_path)) {
    af::Rng rng(dataset_seed(w.dataset, kGraphSeed));
    const af::Graph generated =
        af::make_dataset(af::dataset_spec(w.dataset), rng);
    if (w.af1) {
      af::storage::ConvertOptions copts;
      copts.index32 = false;  // the planner serves the 16-byte index
      af::storage::write_container(generated, graph_path, copts);
    } else {
      const std::string tmp = graph_path + ".tmp";
      if (!af::save_edge_list(generated, tmp) ||
          std::rename(tmp.c_str(), graph_path.c_str()) != 0) {
        throw std::runtime_error("cannot write " + graph_path);
      }
    }
  }

  // Pairs are sampled on the graph exactly as the timed run will see it:
  // the container's mapped graph, or the edge list parsed back.
  const Dataset d = open_graph(w, dir);
  // The paper's protocol (Sec. IV): p_max >= 0.01, capped at 0.12 to match
  // the Fig. 3 pair population.
  af::PairSamplerConfig pcfg;
  pcfg.pmax_threshold = 0.01;
  pcfg.pmax_upper = 0.12;
  pcfg.estimate_samples = 2'000;
  af::Rng rng(dataset_seed(w.name, kGraphSeed));
  const auto pairs = af::sample_pairs(*d.graph, w.pairs, pcfg, rng);
  if (pairs.size() < w.pairs) {
    throw std::runtime_error("pair sampling accepted too few pairs");
  }
  const std::string path = pairs_path(dir);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out.precision(17);
    for (const auto& p : pairs) {
      out << p.s << ' ' << p.t << ' ' << p.pmax_estimate << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

Dist summarize(std::vector<double> values) {
  Dist d;
  d.n = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p50 = quantile(values, 0.5);
  if (d.n >= 21) {
    // The highest percentile with at least ten samples beyond it, capped
    // at p90: further out, a run's tail is whichever few queries met a
    // burst on the shared host, and it no longer repeats.
    d.tail_pct = std::min(
        90.0, 100.0 * static_cast<double>(d.n - 10) / static_cast<double>(d.n));
    d.tail = quantile(values, d.tail_pct / 100.0);
  } else {
    d.tail = d.p50;
    d.tail_pct = 50.0;
  }
  return d;
}

void check_answer(const af::Graph& g, Record& rec) {
  const af::PlanResult& r = rec.result;
  rec.passed = false;
  if (!r.ok()) {
    rec.failure = std::string("status ") + af::to_string(r.status);
    return;
  }
  const af::InvitationSet& inv = r.invitation;
  const af::NodeId s = rec.spec.s;
  if (!inv.contains(rec.spec.t)) {
    rec.failure = "t not in I";
    return;
  }
  if (inv.contains(s)) {
    rec.failure = "s in I";
    return;
  }
  for (const af::NodeId v : g.neighbors(s)) {
    if (inv.contains(v)) {
      rec.failure = "a friend of s in I";
      return;
    }
  }
  if (std::holds_alternative<af::MinimizeSpec>(rec.spec.mode)) {
    if (r.diag.covered < r.diag.coverage_target) {
      rec.failure = "covered below the coverage target";
      return;
    }
  } else {
    const auto& max = std::get<af::MaximizeSpec>(rec.spec.mode);
    if (inv.size() > max.budget) {
      rec.failure = "|I| over budget";
      return;
    }
  }
  rec.passed = true;
}

}  // namespace perfbench
