// The traced replay of the af_perfbench harness.
//
// Replays queries the planner already answered through the public entry
// points of each layer the planner calls — core/vmax, diffusion/dklr,
// diffusion/bulk_sampler, cover/setfamily, cover/mpu, core/maximizer —
// with the planner's own seeds, so every replayed answer must equal the
// planner's bit for bit. Each call runs inside a span (name, start, end,
// parent, query id); spans stay in memory and are written out at the end.
// A layer's self time is its spans' time minus their children's.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>

#include "core/eqsystem.hpp"
#include "core/maximizer.hpp"
#include "core/raf.hpp"
#include "core/vmax.hpp"
#include "cover/mpu.hpp"
#include "cover/setfamily.hpp"
#include "diffusion/bulk_sampler.hpp"
#include "diffusion/dklr.hpp"
#include "diffusion/instance.hpp"
#include "diffusion/path_arena.hpp"
#include "harness.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

/// In-memory span recorder. Spans nest through an explicit stack, so a
/// span's parent is whichever span was open when it began.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int query;
  };

  template <typename F>
  decltype(auto) span(const char* name, int query, F&& body) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, now(), 0.0, stack_.empty() ? -1 : stack_.back(), query});
    stack_.push_back(id);
    struct Close {
      Tracer* tracer;
      int id;
      ~Close() {
        tracer->spans_[static_cast<std::size_t>(id)].end = tracer->now();
        tracer->stack_.pop_back();
      }
    } close{this, id};
    return body();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span: its duration minus its children's durations.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
      }
    }
    return self;
  }

  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    out << "id,name,start_s,end_s,parent,query\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.name << ',' << s.start << ',' << s.end << ','
          << s.parent << ',' << s.query << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The replay's mirror of the planner's per-pair cache.
struct ReplayPair {
  ReplayPair(const af::Graph& g, af::NodeId s, af::NodeId t,
             std::uint64_t pool_seed)
      : inst(g, s, t), stream_root(af::Rng(pool_seed).next_u64()) {}

  af::FriendingInstance inst;
  std::optional<std::vector<af::NodeId>> vmax;
  std::optional<af::DklrResult> pmax;
  const std::uint64_t stream_root;
  std::uint64_t drawn = 0;
  af::PathArena paths;
  std::vector<std::uint64_t> positions;
};

/// Work counts recorded at the same boundaries as the spans.
struct Counters {
  double vmax_runs = 0, vmax_size = 0, reach_size = 0;
  double minimize = 0, cap_bound = 0;
  double dklr_runs = 0, dklr_drawn = 0, dklr_used = 0, dklr_capped = 0;
  double pool_walks = 0, pool_type1 = 0;
  double families = 0, family_sets = 0, family_elements = 0;
  double ls_calls = 0, ls_removed = 0, ls_useful = 0;
  double compared = 0, matched = 0;
};

class Replayer {
 public:
  Replayer(const af::Graph& g, const af::PlannerOptions& opts,
           const af::SelectionSampler& index)
      : graph_(g), opts_(opts), index_(index), pool_(opts.threads) {}

  /// Replays one query; returns the members of its invitation set (empty
  /// when the planner would have answered with a non-kOk status).
  std::vector<af::NodeId> replay(int q, const af::QuerySpec& spec) {
    return tracer_.span("query", q, [&] {
      const std::uint64_t key =
          (std::uint64_t{spec.s} << 32) | std::uint64_t{spec.t};
      auto it = pairs_.find(key);
      if (it == pairs_.end()) {
        it = tracer_.span("instance", q, [&] {
          return pairs_
              .try_emplace(key, graph_, spec.s, spec.t,
                           af::Planner::derive_pool_seed(opts_.base_seed,
                                                         spec.s, spec.t))
              .first;
        });
      }
      ReplayPair& pair = it->second;
      ensure_vmax(q, pair);
      if (pair.vmax->empty()) return std::vector<af::NodeId>{};
      if (const auto* min = std::get_if<af::MinimizeSpec>(&spec.mode)) {
        return minimize(q, pair, *min);
      }
      return maximize(q, pair, std::get<af::MaximizeSpec>(spec.mode));
    });
  }

  const Tracer& tracer() const { return tracer_; }
  Counters& counters() { return counts_; }

 private:
  void ensure_vmax(int q, ReplayPair& pair) {
    if (pair.vmax) return;
    pair.vmax = tracer_.span("vmax", q, [&] {
      return af::compute_vmax(pair.inst);
    });
    // The flood-fill certificate, for comparison with the exact one; the
    // planner does not run it.
    const std::size_t reach = tracer_.span("vmax_reach", q, [&] {
      return af::compute_vmax_reachability(pair.inst).size();
    });
    counts_.vmax_runs += 1;
    counts_.vmax_size += static_cast<double>(pair.vmax->size());
    counts_.reach_size += static_cast<double>(reach);
  }

  af::SetFamily family(int q, ReplayPair& pair, std::uint64_t l) {
    if (pair.drawn < l) {
      tracer_.span("pool", q, [&] {
        // The planner grows its pool in 64Ki-sample chunks.
        constexpr std::uint64_t kGrowthChunk = 64 * 1024;
        while (pair.drawn < l) {
          const std::uint64_t want =
              std::min<std::uint64_t>(kGrowthChunk, l - pair.drawn);
          const af::BulkType1Paths grown = af::sample_type1_bulk(
              pair.inst, index_, pair.drawn, want, pair.stream_root, &pool_);
          pair.paths.append(grown.paths);
          pair.positions.insert(pair.positions.end(), grown.positions.begin(),
                                grown.positions.end());
          counts_.pool_walks += static_cast<double>(want);
          counts_.pool_type1 += static_cast<double>(grown.paths.size());
          pair.drawn += want;
        }
      });
    }
    af::SetFamily fam = tracer_.span("family", q, [&] {
      af::SetFamily f(graph_.num_nodes());
      for (std::size_t k = 0;
           k < pair.positions.size() && pair.positions[k] < l; ++k) {
        f.add_set(pair.paths[k]);
      }
      return f;
    });
    counts_.families += 1;
    counts_.family_sets += static_cast<double>(fam.num_sets());
    counts_.family_elements += static_cast<double>(fam.total_elements());
    return fam;
  }

  std::vector<af::NodeId> minimize(int q, ReplayPair& pair,
                                   const af::MinimizeSpec& spec) {
    if (!pair.pmax) {
      pair.pmax = tracer_.span("dklr", q, [&] {
        af::DklrConfig cfg;
        cfg.epsilon = opts_.pmax_epsilon;
        cfg.delta = opts_.pmax_delta;
        cfg.max_samples = opts_.pmax_max_samples;
        af::Rng rng(af::Planner::derive_pmax_seed(
            opts_.base_seed, pair.inst.initiator(), pair.inst.target()));
        return af::estimate_pmax_dklr(pair.inst, index_, rng, cfg, &pool_);
      });
      counts_.dklr_runs += 1;
      counts_.dklr_drawn += static_cast<double>(pair.pmax->samples_drawn);
      counts_.dklr_used += static_cast<double>(pair.pmax->samples_used);
      counts_.dklr_capped += pair.pmax->converged ? 0.0 : 1.0;
    }
    if (pair.pmax->estimate <= 0.0) return {};

    // The engine's parameter and budget derivation (core/raf).
    af::RafConfig cfg;
    cfg.alpha = spec.alpha;
    cfg.epsilon = spec.epsilon;
    cfg.big_n = spec.big_n;
    cfg.policy = spec.policy;
    cfg.max_realizations = spec.max_realizations;
    const af::RafAlgorithm engine(cfg);
    const std::uint64_t n_eff = pair.vmax->size();
    const af::RafParameters params =
        af::solve_equation_system(spec.alpha, spec.epsilon, spec.policy, n_eff);
    const double l_star = af::required_realizations(params, n_eff, spec.big_n,
                                                    pair.pmax->estimate);
    const std::uint64_t l = engine.capped_realizations(l_star);
    counts_.minimize += 1;
    counts_.cap_bound += static_cast<double>(l) < l_star ? 1.0 : 0.0;

    const af::SetFamily fam = family(q, pair, l);
    const std::uint64_t type1 = fam.total_multiplicity();
    if (type1 == 0) return {};
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::min<double>(
               static_cast<double>(type1),
               std::ceil(params.beta * static_cast<double>(type1)))));
    af::MpuResult cover = tracer_.span("greedy", q, [&] {
      return af::GreedyMpuSolver().solve(fam, target);
    });
    if (spec.local_search) {
      const std::size_t before = cover.union_elements.size();
      cover = tracer_.span("local_search", q, [&] {
        return af::refine_local_search(fam, target, std::move(cover));
      });
      const std::size_t removed = before - cover.union_elements.size();
      counts_.ls_calls += 1;
      counts_.ls_removed += static_cast<double>(removed);
      counts_.ls_useful += removed > 0 ? 1.0 : 0.0;
    }
    return cover.union_elements;
  }

  std::vector<af::NodeId> maximize(int q, ReplayPair& pair,
                                   const af::MaximizeSpec& spec) {
    const af::SetFamily fam = family(q, pair, spec.realizations);
    const af::MaximizerResult res = tracer_.span("maximize", q, [&] {
      return af::maximize_with_family(pair.inst, fam, spec.realizations,
                                      spec.budget);
    });
    if (res.type1_count == 0) return {};
    return res.invitation.members();
  }

  const af::Graph& graph_;
  af::PlannerOptions opts_;
  const af::SelectionSampler& index_;
  af::ThreadPool pool_;
  Tracer tracer_;
  Counters counts_;
  std::map<std::uint64_t, ReplayPair> pairs_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The planner's StageTimings fields summed: the part of a query's wall
/// time the planner attributes to a stage.
double attributed(const af::StageTimings& t) {
  return t.vmax_seconds + t.pmax_seconds + t.sample_seconds + t.solve_seconds;
}

}  // namespace

TraceResult replay_traced(const Dataset& d, const af::SelectionSampler& index,
                          double index_build_s,
                          const std::vector<Record>& untraced,
                          const std::string& spans_path) {
  Replayer replayer(*d.graph, d.planner->options(), index);
  Counters& c = replayer.counters();
  for (std::size_t q = 0; q < untraced.size(); ++q) {
    const std::vector<af::NodeId> members =
        replayer.replay(static_cast<int>(q), untraced[q].spec);
    if (untraced[q].result.ok()) {
      c.compared += 1;
      c.matched += members == untraced[q].result.invitation.members();
    }
  }
  const Tracer& tracer = replayer.tracer();
  tracer.write_csv(spans_path);

  // Self time per (query, layer).
  const std::size_t nq = untraced.size();
  std::map<std::string, std::vector<double>> self_by_layer;
  const std::vector<double> self = tracer.self_times();
  std::vector<double> root(nq, 0.0);
  std::vector<double> probe(nq, 0.0);
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    const auto q = static_cast<std::size_t>(s.query);
    auto& v = self_by_layer[s.name];
    if (v.empty()) v.assign(nq, 0.0);
    v[q] += self[i];
    if (s.parent < 0) root[q] += s.end - s.start;
  }
  auto layer = [&](const char* name) -> const std::vector<double>& {
    auto& v = self_by_layer[name];
    if (v.empty()) v.assign(nq, 0.0);
    return v;
  };
  probe = layer("vmax_reach");

  TraceResult out;
  out.spans = tracer.spans().size();
  const double qn = static_cast<double>(std::max<std::size_t>(nq, 1));
  auto per_query = [&](const char* name) {
    const auto& v = layer(name);
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / qn;
  };
  auto& m = out.metrics;
  m["index.build_s"] = index_build_s;
  m["instance.build_s"] = per_query("instance");
  m["vmax.busy_s"] = per_query("vmax");
  m["vmax.reach_busy_s"] = per_query("vmax_reach");
  m["vmax.size"] = ratio(c.vmax_size, c.vmax_runs);
  m["vmax.reach_size"] = ratio(c.reach_size, c.vmax_runs);
  m["l.cap_bound_share"] = ratio(c.cap_bound, c.minimize);
  m["dklr.busy_s"] = per_query("dklr");
  m["dklr.walks_drawn"] = ratio(c.dklr_drawn, c.dklr_runs);
  m["dklr.used_ratio"] = ratio(c.dklr_used, c.dklr_drawn);
  m["dklr.capped_share"] = ratio(c.dklr_capped, c.dklr_runs);
  m["pool.busy_s"] = per_query("pool");
  m["pool.ns_per_walk"] =
      ratio(per_query("pool") * qn * 1e9, c.pool_walks);
  m["pool.type1_yield"] = ratio(c.pool_type1, c.pool_walks);
  m["family.build_s"] = per_query("family");
  m["family.sets"] = ratio(c.family_sets, c.families);
  m["family.elements"] = ratio(c.family_elements, c.families);
  m["greedy.busy_s"] = per_query("greedy");
  m["local_search.busy_s"] = per_query("local_search");
  m["local_search.removed"] = ratio(c.ls_removed, c.ls_calls);
  m["local_search.useful_ratio"] = ratio(c.ls_useful, c.ls_calls);
  m["maximize.busy_s"] = per_query("maximize");
  m["replay.match_share"] = ratio(c.matched, c.compared);

  // Attribution. W = untraced wall, A = StageTimings sum, U = W − A;
  // the replay's spans that map onto StageTimings fields give A', and
  // the root spans (less the vmax_reach probe the planner never runs)
  // give the traced wall R.
  const auto& vmax = layer("vmax");
  const auto& dklr = layer("dklr");
  const auto& pool = layer("pool");
  const auto& fam = layer("family");
  const auto& greedy = layer("greedy");
  const auto& ls = layer("local_search");
  const auto& maxi = layer("maximize");
  double sum_w = 0.0, sum_u = 0.0, sum_a_replay = 0.0, sum_r = 0.0;
  double warm_max_family = 0.0, warm_max_u = 0.0;
  for (std::size_t q = 0; q < nq; ++q) {
    const Record& rec = untraced[q];
    const double w = rec.latency_s;
    const double u = w - attributed(rec.result.timings);
    const bool is_min = std::holds_alternative<af::MinimizeSpec>(rec.spec.mode);
    sum_w += w;
    sum_u += u;
    sum_a_replay += vmax[q] + dklr[q] + pool[q] +
                    (is_min ? fam[q] + greedy[q] + ls[q] : maxi[q]);
    sum_r += root[q] - probe[q];
    if (!is_min && rec.result.timings.vmax_cache_hit &&
        rec.result.timings.pool_sampled == 0) {
      warm_max_family += fam[q];
      warm_max_u += u;
    }
  }
  m["planner.unattributed_s"] = sum_u / qn;
  m["trace.overhead_s"] = (sum_r - sum_w) / qn;
  out.attribution_gap_s = (sum_w - sum_a_replay - sum_u) / qn;
  m["trace.attribution_gap_s"] = out.attribution_gap_s;
  // The gap differs from the overhead by the replay's own bookkeeping
  // (the instance spans and the tracer), so allow 5% of the wall on top.
  out.attribution_ok = std::abs(out.attribution_gap_s) <=
                       std::abs(m["trace.overhead_s"]) + 0.05 * sum_w / qn;
  m["family.unattributed_share"] = ratio(warm_max_family, warm_max_u);
  out.family_accounts_ok = warm_max_u > 0.0 &&
                           m["family.unattributed_share"] >= 0.5 &&
                           m["family.unattributed_share"] <= 1.5;
  return out;
}

}  // namespace perfbench
