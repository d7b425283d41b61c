// af_perfbench — the repository benchmark's harness (perfbench/README.md).
//
//   af_perfbench gen --workload NAME --dir DIR
//       Writes the workload's fixed input into DIR: its dataset analog (an
//       .af1 container or a text edge list) and its paper-protocol pair
//       pool. Untimed; perfbench/run.py caches it.
//
//   af_perfbench run --workload NAME --seed N --dir DIR --seconds S
//                    --trace 0|1 --report FILE --spans FILE [--commit SHA]
//       Opens the input, draws the query stream from the seed, measures
//       for S seconds, checks every answer, and prints a human-readable
//       report followed by one JSON line: the end-to-end metrics with
//       --trace 0, the per-layer metrics of the traced replay with
//       --trace 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "diffusion/sampling_index.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::runtime_error("bad argument: " + key);
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, const char* def = nullptr) const {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (def != nullptr) return def;
    throw std::runtime_error("missing --" + key);
  }
  double num(const std::string& key) const { return std::stod(str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

/// One reported metric, in the order BENCHMARK.json lists it.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 1e9;  // a miss-dominated tail: still a number
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::vector<double> latencies(const std::vector<Record>& records,
                              const std::function<bool(const Record&)>& keep) {
  std::vector<double> out;
  for (const Record& r : records) {
    if (keep(r)) out.push_back(r.latency_s);
  }
  return out;
}

/// Closed loop: the summed latency of each whole pair session.
std::vector<double> session_totals(const std::vector<Record>& records) {
  std::map<std::size_t, double> total;
  for (const Record& r : records) total[r.session] += r.latency_s;
  std::vector<double> out;
  for (const auto& [session, seconds] : total) out.push_back(seconds);
  return out;
}

/// Closed loop: one value per pair of the pool, the median over all its
/// sessions of a warm round (the summed latency of one round of the warm
/// follow-ups). The follow-ups mix modes whose costs differ by orders of
/// magnitude, so a per-query percentile would flip between modes; the sum
/// is the wait a client asking all of them sees. Pairs differ up to 10×,
/// and a run serves some pairs one session more than others, depending on
/// the seed; a percentile over all rounds then sits on the boundary between
/// the two costliest pairs and flips between them from run to run. Here
/// every pair counts once.
std::vector<double> warm_pair_medians(const std::vector<Record>& records) {
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, double> total;
  for (const Record& r : records) {
    if (!r.cold) total[{r.pair, r.session, r.round}] += r.latency_s;
  }
  std::map<std::size_t, std::vector<double>> rounds;
  for (const auto& [key, seconds] : total) {
    rounds[std::get<0>(key)].push_back(seconds);
  }
  std::vector<double> out;
  for (const auto& [pair, totals] : rounds) out.push_back(median(totals));
  return out;
}

/// Median and p90 over one value per pair.
Dist over_pairs(const std::vector<double>& values) {
  Dist d;
  d.n = values.size();
  d.p50 = quantile(values, 0.5);
  d.tail = quantile(values, 0.9);
  d.tail_pct = 90.0;
  return d;
}

/// The typical value of a population whose members differ by orders of
/// magnitude. Unlike a median over ten pairs, which two middle pairs
/// decide, it rests on every pair and moves in proportion with any one.
double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double logs = 0.0;
  for (const double v : values) logs += std::log(v);
  return std::exp(logs / static_cast<double>(values.size()));
}

/// Sync plan() over `specs` on `planner` until `seconds` have elapsed.
std::vector<Record> sync_pass(af::Planner& planner, const af::Graph& graph,
                              const std::vector<Record>& specs,
                              double seconds) {
  std::vector<Record> out;
  const auto start = Clock::now();
  for (const Record& src : specs) {
    if (seconds_between(start, Clock::now()) >= seconds) break;
    Record rec;
    rec.pair = src.pair;
    rec.step = src.step;
    rec.spec = af::QuerySpec{src.spec.s, src.spec.t, src.spec.mode};
    const auto t0 = Clock::now();
    rec.result = planner.plan(rec.spec);
    rec.latency_s = seconds_between(t0, Clock::now());
    rec.cold = !rec.result.timings.vmax_cache_hit;
    check_answer(graph, rec);
    out.push_back(std::move(rec));
  }
  return out;
}

double pool_reuse_ratio(const std::vector<Record>& records) {
  double reused = 0.0;
  double total = 0.0;
  for (const Record& r : records) {
    reused += static_cast<double>(r.result.timings.pool_reused);
    total += static_cast<double>(r.result.timings.pool_reused +
                                 r.result.timings.pool_sampled);
  }
  return total > 0.0 ? reused / total : 0.0;
}

int cmd_gen(const Args& args) {
  const Workload* w = find_workload(args.str("workload"));
  if (w == nullptr) throw std::runtime_error("unknown workload");
  generate_inputs(*w, args.str("dir"));
  return 0;
}

int cmd_run(const Args& args) {
  const Workload* wp = find_workload(args.str("workload"));
  if (wp == nullptr) throw std::runtime_error("unknown workload");
  const Workload& w = *wp;
  const std::string dir = args.str("dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const double seconds = args.num("seconds");
  const bool trace = args.str("trace") == "1";
  const std::vector<Pair> pairs = read_pairs(pairs_path(dir));
  const af::PlannerOptions opts = planner_options(w);

  // Set-up: open/parse the dataset and construct the planner, three times
  // before the measurement (the last serves it) and three times after, so
  // the median spans the run rather than one moment of a noisy host.
  std::vector<double> setup, parse, open, ctor;
  auto timed_setup = [&] {
    Dataset x = open_dataset(w, dir, opts);
    setup.push_back(x.total_s);
    parse.push_back(x.parse_s);
    open.push_back(x.open_s);
    ctor.push_back(x.planner_s);
    return x;
  };
  constexpr int kSetupReps = 3;
  Dataset d;
  for (int r = 0; r < kSetupReps; ++r) {
    d.planner.reset();  // before the graph it reads
    d = timed_setup();
  }
  auto setup_again = [&] {
    for (int r = 0; r < kSetupReps; ++r) timed_setup();
  };
  const af::PlannerCacheStats setup_stats = d.planner->cache_stats();

  // The index the quality evaluation and the traced replay walk through:
  // the container's tables, or one built here (timed: index.build_s).
  std::unique_ptr<const af::SelectionSampler> index;
  double index_build_s = 0.0;
  if (d.mapped) {
    index = d.mapped->make_index(/*compact=*/false);
  } else {
    const auto t0 = Clock::now();
    index = std::make_unique<const af::SamplingIndex>(*d.graph);
    index_build_s = seconds_between(t0, Clock::now());
  }

  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<Record> records;
  double throughput = 0.0;
  Dist cold, warm, load;
  double warm_gmean = 0.0;
  ServingRun serving;
  ClosedLoopRun closed;
  const double measure_s = trace ? seconds / 2.0 : seconds;
  // Read before the checks, whose reference planner is not the workload's.
  double rss_mb = 0.0;
  if (w.serving) {
    serving = run_serving(d, pairs, seed, seconds);
    rss_mb = peak_rss_mb();
    setup_again();
    check_bit_identity(d, serving);
    records = serving.records;
    // Latencies of maximize queries, whose cold and warm costs are each one
    // population (a minimize costs several times more either way, so mixed
    // in it would decide which population a percentile falls in). Cold and
    // warm: misses and hits at the low rate. Load: hits at the high rate,
    // where they queue behind other work.
    const auto low = static_cast<int>(kLowRung);
    const auto high = static_cast<int>(kHighRung);
    auto maximize = [](const Record& r) {
      return std::holds_alternative<af::MaximizeSpec>(r.spec.mode);
    };
    cold = summarize(latencies(records, [&](const Record& r) {
      return maximize(r) && r.cold && r.rung == low;
    }));
    const std::vector<double> warm_latencies =
        latencies(records, [&](const Record& r) {
          return maximize(r) && !r.cold && r.rung == low;
        });
    warm = summarize(warm_latencies);
    warm_gmean = geomean(warm_latencies);
    load = summarize(latencies(records, [&](const Record& r) {
      return maximize(r) && !r.cold && r.rung == high;
    }));
    throughput = serving.rungs[kOverloadRung].achieved_qps;
  } else {
    closed = run_closed_loop(d, w, pairs, seed, measure_s);
    rss_mb = peak_rss_mb();
    setup_again();
    records = closed.records;
    cold = summarize(latencies(records, [](const Record& r) { return r.cold; }));
    const std::vector<double> pair_warm = warm_pair_medians(records);
    warm = over_pairs(pair_warm);
    warm_gmean = geomean(pair_warm);
    load = summarize(session_totals(records));
    throughput = static_cast<double>(records.size()) / closed.loop_s;
  }

  // |I| over the distinct answers of the α = 0.1 minimize every workload
  // runs: one population, whichever pairs the stream repeats.
  std::size_t failed = 0;
  std::map<std::string, std::size_t> failures;
  std::vector<double> invites;
  std::set<std::pair<std::size_t, std::size_t>> counted;
  for (const Record& r : records) {
    const auto* min = std::get_if<af::MinimizeSpec>(&r.spec.mode);
    if (!r.passed) {
      ++failed;
      ++failures[r.failure];
    } else if (min != nullptr && min->alpha == 0.1 &&
               counted.insert({r.pair, r.step}).second) {
      invites.push_back(static_cast<double>(r.result.invitation.size()));
    }
  }
  const std::size_t attempted = records.size();
  const std::vector<double> quality = evaluate_quality(d, *index, records);

  if (!trace) {
    metrics = {
        {"setup_s", median(setup), "s"},
        {"cold_p50_s", cold.p50, "s"},
        {"cold_tail_s", cold.tail, "s"},
        {"warm_gmean_s", warm_gmean, "s"},
        {"warm_tail_s", warm.tail, "s"},
        {"load_p50_s", load.p50, "s"},
        {"throughput_qps", throughput, "1/s"},
        {"ok_share",
         static_cast<double>(attempted - failed) /
             static_cast<double>(std::max<std::size_t>(attempted, 1)),
         "ratio"},
        {"invites_p50", median(invites), "count"},
        {"quality_p10", quantile(quality, 0.1), "ratio"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    // The traced run: replay the closed loop's queries (serving: the
    // ladder's distinct queries, answered once more by sync plan() on an
    // unbounded planner) through the layers with spans around each call.
    std::vector<Record> untraced = records;
    if (w.serving) {
      std::vector<Record> distinct;
      std::map<std::pair<std::size_t, std::size_t>, bool> seen;
      for (const Record& r : records) {
        if (seen.emplace(std::make_pair(r.pair, r.step), true).second) {
          distinct.push_back(r);
        }
      }
      af::PlannerOptions unbounded = opts;
      unbounded.cache_budget_bytes = 0;
      const auto ref = af::Planner::from_mapped(*d.mapped, unbounded);
      untraced = sync_pass(*ref, *d.graph, distinct, seconds / 2.0);
    }
    const TraceResult tr = replay_traced(d, *index, index_build_s, untraced,
                                         args.str("spans"));
    auto m = tr.metrics;
    m["io.parse_s"] = median(parse);
    m["af1.open_s"] = median(open);
    m["planner.from_mapped_s"] = d.mapped ? median(ctor) : 0.0;
    m["index.bytes"] = static_cast<double>(setup_stats.index_bytes);
    m["planner.pool_reuse_ratio"] = pool_reuse_ratio(records);
    m["planner.cache_bytes_peak"] = static_cast<double>(
        w.serving ? serving.cache_bytes_peak : closed.cache_bytes_peak);
    m["planner.evictions"] =
        static_cast<double>(d.planner->cache_stats().evictions);
    std::vector<double> waits, lags;
    double rebuilt = 0.0;
    for (const Record& r : records) {
      if (r.rung < 0) continue;
      // Queue waits below overload, where they decide the latency tails.
      if (r.rung < static_cast<int>(kOverloadRung)) {
        waits.push_back(r.result.timings.queue_seconds);
      }
      lags.push_back(r.lag_s);
      rebuilt += r.rebuilt ? 1.0 : 0.0;
    }
    const Dist wait = summarize(waits);
    const double submitted = static_cast<double>(serving.submitted);
    m["lru.rebuild_share"] =
        w.serving ? rebuilt / static_cast<double>(records.size()) : 0.0;
    m["queue.wait_p50_s"] = wait.p50;
    m["queue.wait_tail_s"] = wait.tail;
    m["serving.coalesced_share"] =
        submitted > 0 ? static_cast<double>(serving.coalesced) / submitted
                      : 0.0;
    m["serving.rejected_share"] =
        submitted > 0 ? static_cast<double>(serving.rejected) / submitted
                      : 0.0;
    m["generator.lag_tail_s"] = summarize(lags).tail;
    const char* units[][2] = {
        {"io.parse_s", "s"},
        {"af1.open_s", "s"},
        {"planner.from_mapped_s", "s"},
        {"index.build_s", "s"},
        {"index.bytes", "bytes"},
        {"instance.build_s", "s"},
        {"vmax.busy_s", "s"},
        {"vmax.reach_busy_s", "s"},
        {"vmax.size", "count"},
        {"vmax.reach_size", "count"},
        {"l.cap_bound_share", "ratio"},
        {"dklr.busy_s", "s"},
        {"dklr.walks_drawn", "count"},
        {"dklr.used_ratio", "ratio"},
        {"dklr.capped_share", "ratio"},
        {"pool.busy_s", "s"},
        {"pool.ns_per_walk", "ns"},
        {"pool.type1_yield", "ratio"},
        {"family.build_s", "s"},
        {"family.sets", "count"},
        {"family.elements", "count"},
        {"greedy.busy_s", "s"},
        {"local_search.busy_s", "s"},
        {"local_search.removed", "count"},
        {"local_search.useful_ratio", "ratio"},
        {"maximize.busy_s", "s"},
        {"planner.unattributed_s", "s"},
        {"family.unattributed_share", "ratio"},
        {"planner.pool_reuse_ratio", "ratio"},
        {"planner.evictions", "count"},
        {"planner.cache_bytes_peak", "bytes"},
        {"lru.rebuild_share", "ratio"},
        {"queue.wait_p50_s", "s"},
        {"queue.wait_tail_s", "s"},
        {"serving.coalesced_share", "ratio"},
        {"serving.rejected_share", "ratio"},
        {"generator.lag_tail_s", "s"},
        {"replay.match_share", "ratio"},
        {"trace.overhead_s", "s"},
        {"trace.attribution_gap_s", "s"},
    };
    for (const auto& [name, unit] : units) {
      metrics.push_back({name, m.at(name), unit});
    }
    notes.push_back(std::string("attribution: untraced wall = replayed "
                                "stage self times + planner.unattributed_s "
                                "within |trace.overhead_s| + 5% of wall: ") +
                    (tr.attribution_ok ? "PASS" : "FAIL") + " (gap " +
                    fmt(tr.attribution_gap_s) + " s per query over " +
                    std::to_string(untraced.size()) + " queries, " +
                    std::to_string(tr.spans) + " spans)");
    notes.push_back(std::string("warm maximize: family.build_s accounts for "
                                "planner.unattributed_s (share within "
                                "[0.5, 1.5]): ") +
                    (tr.family_accounts_ok ? "PASS" : "FAIL") + " (share " +
                    fmt(m.at("family.unattributed_share")) + ")");
  }

  // ---- Human-readable report, then the one JSON line.
  const std::string compiler =
#ifdef __VERSION__
      __VERSION__;
#else
      "unknown";
#endif
  const af::Graph& g = *d.graph;
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0);
  std::printf("# host: nproc=%u cpu=\"%s\" build=%s compiler=\"%s\" "
              "commit=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              AF_PERFBENCH_BUILD_TYPE, compiler.c_str(),
              args.str("commit", "unknown").c_str());
  std::printf("# dataset: %s n=%u m=%llu pairs=%zu (%s), planner threads=%zu\n",
              w.dataset.c_str(), g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()), pairs.size(),
              w.af1 ? ".af1 container" : "text edge list", opts.threads);
  std::printf("# queries attempted=%zu failed=%zu", attempted, failed);
  for (const auto& [why, count] : failures) {
    std::printf(" [%zu x %s]", count, why.c_str());
  }
  std::printf("\n");
  auto print_dist = [](const char* name, const Dist& x) {
    std::printf("#   %-22s p50 %.6f s  tail %.6f s at p%.1f  (n=%zu)\n", name,
                x.p50, x.tail, x.tail_pct, x.n);
  };
  if (w.serving) {
    std::printf("# ladder (latency from scheduled send; limit %.3f s on the "
                "tail):\n", serving_latency_limit_s());
    for (const Rung& r : serving.rungs) {
      std::printf("#   offered %6.1f q/s  achieved %7.2f q/s  p50 %.6f s  "
                  "tail %.6f s at p%.1f (n=%zu)  misses %zu  %s%s\n",
                  r.offered_qps, r.achieved_qps, r.latency.p50,
                  r.latency.tail, r.latency.tail_pct, r.latency.n, r.misses,
                  r.meets_limit ? "meets" : "misses",
                  r.growing_backlog ? " (growing backlog)" : "");
    }
    const Rung& lo = serving.rungs[kLowRung];
    const Rung& hi = serving.rungs[kHighRung];
    std::printf("#   low_rate.p50_s %.6f  low_rate.tail_s %.6f  "
                "high_rate.p50_s %.6f  high_rate.tail_s %.6f  "
                "max_rate_qps %.3f\n",
                lo.latency.p50, lo.latency.tail, hi.latency.p50,
                hi.latency.tail, serving.max_rate_qps);
    std::printf("#   cache: budget %llu B, peak charged %llu B, %llu evictions\n",
                static_cast<unsigned long long>(opts.cache_budget_bytes),
                static_cast<unsigned long long>(serving.cache_bytes_peak),
                static_cast<unsigned long long>(serving.evictions));
    std::printf("#   bit-identity vs sync plan(): %zu answers checked, %zu "
                "differ\n", serving.identity_checked,
                serving.identity_mismatches);
  }
  print_dist(w.serving ? "cold maximize (low)" : "cold query", cold);
  print_dist(w.serving ? "warm maximize (low)" : "warm round, pair medians",
             warm);
  print_dist(w.serving ? "warm maximize (high)" : "session/pair (load)",
             load);
  std::printf("#   failed_share %.6f  quality: %zu answers evaluated\n",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::size_t>(attempted, 1)),
              quality.size());
  for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-28s %22s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }

  std::ostringstream line;
  line << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i ? ", " : "") << json_string(metrics[i].name)
         << ": {\"value\": " << fmt(metrics[i].value)
         << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  line << "}}";

  // The same result plus provenance and per-query rows, for the record.
  std::ofstream report(args.str("report"));
  report << "{\"workload\": " << json_string(w.name) << ", \"seed\": " << seed
         << ", \"seconds\": " << fmt(seconds) << ", \"trace\": " << trace
         << ",\n \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
         << ", \"cpu\": " << json_string(cpu_model())
         << ", \"build\": " << json_string(AF_PERFBENCH_BUILD_TYPE)
         << ", \"compiler\": " << json_string(compiler)
         << ", \"commit\": " << json_string(args.str("commit", "unknown"))
         << "},\n \"dataset\": {\"name\": " << json_string(w.dataset)
         << ", \"n\": " << g.num_nodes() << ", \"m\": " << g.num_edges()
         << ", \"pairs\": " << pairs.size() << "},\n \"result\": "
         << line.str() << ",\n \"queries\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const af::StageTimings& t = r.result.timings;
    report << (i ? ",\n  " : "\n  ") << "{\"pair\": " << r.pair
           << ", \"step\": " << r.step << ", \"cold\": " << r.cold
           << ", \"rung\": " << r.rung << ", \"status\": "
           << json_string(af::to_string(r.result.status))
           << ", \"invites\": " << r.result.invitation.size()
           << ", \"latency_s\": " << fmt(r.latency_s)
           << ", \"vmax_s\": " << fmt(t.vmax_seconds)
           << ", \"pmax_s\": " << fmt(t.pmax_seconds)
           << ", \"sample_s\": " << fmt(t.sample_seconds)
           << ", \"solve_s\": " << fmt(t.solve_seconds)
           << ", \"queue_s\": " << fmt(t.queue_seconds)
           << ", \"unattributed_s\": "
           << fmt(r.rung < 0 ? r.latency_s - t.vmax_seconds - t.pmax_seconds -
                                   t.sample_seconds - t.solve_seconds
                             : 0.0)
           << "}";
  }
  report << "]}\n";

  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: af_perfbench gen|run --key value ...\n");
    return 2;
  }
  try {
    const Args args(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "run") return cmd_run(args);
    std::fprintf(stderr, "af_perfbench: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "af_perfbench: %s\n", e.what());
    return 1;
  }
}
