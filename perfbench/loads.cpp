// The load generators of the af_perfbench harness: the closed-loop
// client, the open-loop plan_async ladder, and the checks and quality
// evaluation that run after them, outside every timed region.
#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <set>
#include <thread>
#include <utility>

#include "diffusion/bulk_sampler.hpp"
#include "diffusion/instance.hpp"
#include "harness.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The serving mode table: maximize k ∈ {4, 16} and minimize α = 0.1, all
/// on the first 20k realizations of a pair's pool, so every mode reads
/// the same pooled paths and per-query work stays small.
struct ServingMode {
  Mode mode;
  double weight;
};
const std::vector<ServingMode>& serving_modes() {
  static const std::vector<ServingMode> kModes = {
      {af::MaximizeSpec{.budget = 4, .realizations = 20'000}, 0.4},
      {af::MaximizeSpec{.budget = 16, .realizations = 20'000}, 0.4},
      {af::MinimizeSpec{.alpha = 0.1, .max_realizations = 20'000}, 0.2},
  };
  return kModes;
}

constexpr double kZipfExponent = 1.1;
/// Zipf ranks answered once before the ladder starts.
constexpr std::size_t kWarmPairs = 16;

/// Inverse-CDF sampler over `n` ranks with weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t draw(af::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Arrival {
  double at_s = 0.0;
  std::size_t pair = 0;
  std::size_t mode = 0;
};

/// Poisson arrivals at `rate` over `duration` seconds, pairs by Zipf rank
/// and modes by the mode table's weights — a pure function of the rng.
std::vector<Arrival> schedule(double rate, double duration, std::size_t pairs,
                              af::Rng& rng) {
  const Zipf zipf(pairs, kZipfExponent);
  std::vector<Arrival> out;
  double at = -std::log(1.0 - rng.uniform()) / rate;
  while (at < duration) {
    Arrival a;
    a.at_s = at;
    a.pair = zipf.draw(rng);
    double u = rng.uniform();
    a.mode = serving_modes().size() - 1;
    for (std::size_t m = 0; m < serving_modes().size(); ++m) {
      if (u < serving_modes()[m].weight) {
        a.mode = m;
        break;
      }
      u -= serving_modes()[m].weight;
    }
    out.push_back(a);
    at += -std::log(1.0 - rng.uniform()) / rate;
  }
  return out;
}

bool is_miss(const af::PlanResult& r) {
  return r.status == af::PlanStatus::kOverloaded ||
         r.status == af::PlanStatus::kDeadlineExceeded;
}

}  // namespace

const std::vector<RungPlan>& serving_ladder() {
  // Fixed, never recalibrated. On a 4-vCPU host the planner completes
  // ~250-350 q/s of this mix. Low: far below that. High: queueing shows,
  // short of saturation. Overload: past it, so the rung's completion rate
  // is the capacity.
  static const std::vector<RungPlan> kLadder = {
      {16.0, 0.6}, {64.0, 0.2}, {600.0, 0.2}};
  return kLadder;
}
double serving_latency_limit_s() { return 1.0; }

ClosedLoopRun run_closed_loop(Dataset& d, const Workload& w,
                              const std::vector<Pair>& pool,
                              std::uint64_t seed, double seconds) {
  const std::vector<SweepStep> sweep = sweep_for(w);
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  af::Rng(af::SplitMix64(seed ^ 0xc105edu).next()).shuffle(order);
  ClosedLoopRun run;
  const auto start = Clock::now();
  std::size_t next = 0;
  for (std::size_t session = 0; seconds_between(start, Clock::now()) < seconds;
       ++session) {
    if (next == order.size()) {
      // Every pair has been served: start over from cold caches.
      d.planner->clear_caches();
      next = 0;
    }
    const std::size_t p = order[next++];
    for (std::size_t round = 0; round < w.warm_rounds; ++round) {
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (sweep[i].cold && round > 0) continue;
        Record rec;
        rec.session = session;
        rec.round = round;
        rec.pair = p;
        rec.step = i;
        rec.cold = sweep[i].cold;
        rec.spec = af::QuerySpec{pool[p].s, pool[p].t, sweep[i].mode};
        const auto t0 = Clock::now();
        rec.result = d.planner->plan(rec.spec);
        rec.latency_s = seconds_between(t0, Clock::now());
        run.cache_bytes_peak = std::max(
            run.cache_bytes_peak, d.planner->cache_stats().charged_bytes);
        run.records.push_back(std::move(rec));
      }
    }
  }
  run.loop_s = seconds_between(start, Clock::now());
  for (Record& rec : run.records) check_answer(*d.graph, rec);
  return run;
}

ServingRun run_serving(Dataset& d, const std::vector<Pair>& pairs,
                       std::uint64_t seed,
                       double seconds) {
  ServingRun run;
  const std::vector<RungPlan>& ladder = serving_ladder();
  const double limit = serving_latency_limit_s();
  std::vector<bool> seen(pairs.size(), false);
  af::Planner& planner = *d.planner;
  const af::ServingStats before = planner.serving_stats();

  // Untimed warm-up: the most popular pairs in every mode, so the ladder
  // starts from the cache state that serving keeps, not from empty.
  std::vector<af::QuerySpec> warmup;
  for (std::size_t p = 0; p < std::min(kWarmPairs, pairs.size()); ++p) {
    for (const ServingMode& m : serving_modes()) {
      warmup.push_back(af::QuerySpec{pairs[p].s, pairs[p].t, m.mode});
    }
    seen[p] = true;
  }
  planner.plan_batch(warmup);

  for (std::size_t k = 0; k < ladder.size(); ++k) {
    const double rung_s = seconds * ladder[k].share;
    af::Rng rng(af::SplitMix64(seed ^ (0x5e41u + k)).next());
    const std::vector<Arrival> arrivals =
        schedule(ladder[k].qps, rung_s, pairs.size(), rng);
    std::vector<std::future<af::PlanResult>> futures;
    futures.reserve(arrivals.size());
    std::vector<Record> recs(arrivals.size());
    const auto base = Clock::now() + std::chrono::milliseconds(2);
    auto next_sample = base;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const auto due =
          base + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(a.at_s));
      std::this_thread::sleep_until(due);
      Record& rec = recs[i];
      rec.pair = a.pair;
      rec.step = a.mode;
      rec.rung = static_cast<int>(k);
      rec.spec = af::QuerySpec{pairs[a.pair].s, pairs[a.pair].t,
                               serving_modes()[a.mode].mode};
      const auto sent = Clock::now();
      futures.push_back(planner.plan_async(rec.spec));
      rec.lag_s = seconds_between(due, sent);
      if (sent >= next_sample) {
        run.cache_bytes_peak = std::max(run.cache_bytes_peak,
                                        planner.cache_stats().charged_bytes);
        next_sample = sent + std::chrono::milliseconds(10);
      }
    }
    std::vector<double> latencies;
    double last_done_s = rung_s;
    std::size_t answered = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      Record& rec = recs[i];
      rec.result = futures[i].get();
      if (is_miss(rec.result)) {
        rec.latency_s = kInf;
      } else {
        rec.latency_s = rec.lag_s + rec.result.timings.async_seconds;
        last_done_s = std::max(last_done_s, arrivals[i].at_s + rec.latency_s);
        ++answered;
      }
      rec.cold = !rec.result.timings.vmax_cache_hit;
      rec.rebuilt = rec.cold && seen[rec.pair];
      seen[rec.pair] = true;
      latencies.push_back(rec.latency_s);
    }
    run.cache_bytes_peak =
        std::max(run.cache_bytes_peak, planner.cache_stats().charged_bytes);

    Rung rung;
    rung.offered_qps = ladder[k].qps;
    rung.achieved_qps = static_cast<double>(answered) / last_done_s;
    rung.misses = recs.size() - answered;
    // A backlog that grows through the rung makes its second half wait far
    // longer than its first; medians, so a few cold queries do not count.
    const std::size_t half = latencies.size() / 2;
    if (half > 0) {
      const double first = quantile(
          std::vector<double>(latencies.begin(), latencies.begin() + half),
          0.5);
      const double second = quantile(
          std::vector<double>(latencies.begin() + half, latencies.end()), 0.5);
      rung.growing_backlog = second > 2.0 * first && second > 0.5 * limit;
    }
    rung.latency = summarize(std::move(latencies));
    rung.meets_limit = rung.latency.n > 0 && rung.latency.tail <= limit &&
                       !rung.growing_backlog;
    run.rungs.push_back(rung);
    for (Record& rec : recs) {
      check_answer(*d.graph, rec);
      run.records.push_back(std::move(rec));
    }
  }
  const af::ServingStats after = planner.serving_stats();
  run.submitted = (after.submitted + after.rejected_overloaded) -
                  (before.submitted + before.rejected_overloaded);
  run.coalesced = after.coalesced - before.coalesced;
  run.rejected = after.rejected_overloaded - before.rejected_overloaded;
  run.evictions = planner.cache_stats().evictions;
  for (const Rung& r : run.rungs) {
    if (r.meets_limit) {
      run.max_rate_qps = std::max(run.max_rate_qps, r.offered_qps);
    }
  }
  return run;
}

void check_bit_identity(Dataset& d, ServingRun& run) {
  // One reference answer per distinct (pair, mode), from sync plan() on
  // a fresh planner with the same options.
  std::vector<std::pair<std::size_t, std::size_t>> keys;
  std::vector<af::QuerySpec> specs;
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const Record& rec : run.records) {
    if (!rec.result.ok()) continue;
    if (seen.insert({rec.pair, rec.step}).second) {
      keys.push_back({rec.pair, rec.step});
      specs.push_back(af::QuerySpec{rec.spec.s, rec.spec.t, rec.spec.mode});
    }
  }
  // Unbounded: the budget never changes an answer, only what is rebuilt.
  af::PlannerOptions opts = d.planner->options();
  opts.cache_budget_bytes = 0;
  const std::unique_ptr<af::Planner> ref =
      d.mapped ? af::Planner::from_mapped(*d.mapped, opts)
               : std::make_unique<af::Planner>(*d.graph, opts);
  const std::vector<af::PlanResult> answers = ref->plan_batch(specs);
  for (Record& rec : run.records) {
    if (!rec.result.ok()) continue;
    const auto at = std::find(keys.begin(), keys.end(),
                              std::make_pair(rec.pair, rec.step)) -
                    keys.begin();
    const af::PlanResult& a = answers[static_cast<std::size_t>(at)];
    const af::PlanResult& b = rec.result;
    const bool same =
        a.status == b.status &&
        a.invitation.members() == b.invitation.members() &&
        a.diag.covered == b.diag.covered &&
        a.diag.coverage_target == b.diag.coverage_target &&
        a.diag.type1_count == b.diag.type1_count &&
        a.diag.l_used == b.diag.l_used &&
        a.sample_coverage == b.sample_coverage;
    ++run.identity_checked;
    if (!same) {
      ++run.identity_mismatches;
      if (rec.passed) {
        rec.passed = false;
        rec.failure = "differs from the sync plan() answer";
      }
    }
  }
}

std::vector<double> evaluate_quality(const Dataset& d,
                                     const af::SelectionSampler& index,
                                     const std::vector<Record>& records) {
  constexpr std::uint64_t kSamples = 1u << 18;
  constexpr std::uint64_t kChunk = 1u << 16;
  af::ThreadPool pool(d.planner->options().threads);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  std::vector<double> ratios;
  for (const Record& rec : records) {
    const auto* min = std::get_if<af::MinimizeSpec>(&rec.spec.mode);
    if (min == nullptr || !rec.passed) continue;
    if (!seen.insert({rec.pair, rec.step}).second) continue;
    const af::FriendingInstance inst(*d.graph, rec.spec.s, rec.spec.t);
    const std::uint64_t root =
        af::SplitMix64(0x9a115eedULL ^
                       ((std::uint64_t{rec.spec.s} << 32) | rec.spec.t))
            .next();
    std::uint64_t type1 = 0;
    std::uint64_t covered = 0;
    for (std::uint64_t first = 0; first < kSamples; first += kChunk) {
      const af::BulkType1Paths bulk =
          af::sample_type1_bulk(inst, index, first, kChunk, root, &pool);
      type1 += bulk.paths.size();
      for (std::size_t k = 0; k < bulk.paths.size(); ++k) {
        const auto path = bulk.paths[k];
        covered += std::all_of(path.begin(), path.end(), [&](af::NodeId v) {
          return rec.result.invitation.contains(v);
        });
      }
    }
    if (type1 == 0) continue;
    ratios.push_back(static_cast<double>(covered) /
                     (min->alpha * static_cast<double>(type1)));
  }
  return ratios;
}

}  // namespace perfbench
