// paper-table: the Sec. V-A headline table. Every synthetic submission is
// scored with Challenge::evaluate under SA, BF, P, MED, ENT and SA+CG, in
// the scheme-major order table_scheme_comparison uses, each scheme's pass
// swept over four threads as analyze_population sweeps a population. The
// inputs are the paper table's (challenge seed 20070425, population seed
// 17), so its printed values check every run; the workload seed orders the
// submissions inside each scheme's pass and picks the submissions
// re-scored through the reference path.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "aggregation/factory.hpp"
#include "bench.hpp"
#include "challenge/challenge.hpp"
#include "challenge/participants.hpp"
#include "rating/overlay.hpp"
#include "span_tree.hpp"
#include "trust/collusion.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using rab::challenge::Challenge;
using rab::challenge::Submission;

constexpr std::uint64_t kChallengeSeed = 20070425;
constexpr std::uint64_t kPopulationSeed = 17;
constexpr std::size_t kPopulationSize = 251;
constexpr std::size_t kSetupRepeats = 5;
/// Threads a scheme's pass is swept over: one per core of the 4-core
/// machine the bounds were set on. Four threads average the speed of four
/// cores, which on a shared host moves less than the speed of one.
constexpr std::size_t kTableThreads = 4;
static_assert(kTableThreads <= kMaxProbeThreads,
              "each table thread probes on a buffer of its own");
/// Each table thread runs the reference work once between two MP
/// evaluations when this long passed since it last did: about 10 runs a
/// second per thread, 5% of its time, spread over the whole table.
constexpr double kProbeInterval_s = 0.1;
const std::vector<std::string> kSchemes{"SA", "BF", "P", "MED", "ENT",
                                        "SA+CG"};

/// Max MP per scheme over population 17, in kSchemes order, as the default
/// fast-FP build computes it. table_scheme_comparison prints the first five
/// to three decimals (SA 4.160, BF 2.654, P 1.745, MED 4.000, ENT 5.768).
constexpr double kPaperMaxMp[] = {4.1602688868848734, 2.6541584214427028,
                                  1.7453796142853064, 4.0,
                                  5.7682061624790482, 2.4714877879499584};
constexpr double kTolerance = 1e-9;

struct Setup {
  std::unique_ptr<Challenge> challenge;
  std::vector<Submission> population;
  std::vector<std::unique_ptr<rab::aggregation::AggregationScheme>> schemes;
  double population_s = 0.0;
  double fair_baseline_s = 0.0;
};

/// Challenge, population and every scheme's cached fair baseline (one
/// evaluation of an empty submission computes and caches it).
Setup build_setup() {
  Setup setup;
  setup.challenge =
      std::make_unique<Challenge>(Challenge::make_default(kChallengeSeed));
  const double t0 = now_s();
  setup.population =
      rab::challenge::ParticipantPopulation(*setup.challenge, kPopulationSeed)
          .generate(kPopulationSize);
  const double t1 = now_s();
  for (const std::string& spec : kSchemes) {
    setup.schemes.push_back(rab::aggregation::make_scheme(spec));
    (void)setup.challenge->metric().evaluate_overall(Submission{},
                                                     *setup.schemes.back());
  }
  setup.population_s = t1 - t0;
  setup.fair_baseline_s = now_s() - t1;
  return setup;
}

struct Unit {
  double wall_s = 0.0;  ///< as measured, probe runs left out
  double cpu_s = 0.0;
  double scale = 1.0;   ///< SpeedProbe::scale() over the unit
  std::vector<std::vector<double>> mp;  ///< [scheme][submission]
  std::vector<double> latency_s;        ///< one per evaluate call
  std::uint64_t rejected = 0;
};

/// Calls body(t, k) for every k in [0, n) on kTableThreads threads of its
/// own (t = 0, 1, ...), which take the indices in turn, and waits for them.
/// Not util::parallel_for: its calling thread takes indices too, so in a
/// traced unit the workers' spans would nest under the caller's.
template <typename Body>
void for_each_on_table_threads(std::size_t n, const Body& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kTableThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = next++; k < n; k = next++) body(t, k);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// One table: scheme by scheme, every submission evaluated once, as
/// analyze_population sweeps a population. With `probe` the reference work
/// runs between evaluations on every table thread; its time, shared over
/// the threads, is left out of the unit's wall and CPU seconds, and its
/// speed gives the unit's scale.
template <typename Scheme>
Unit run_unit(const Setup& setup, const std::vector<std::size_t>& order,
              const std::vector<Scheme>& schemes, bool probe) {
  const std::size_t n = order.size();
  Unit unit;
  unit.mp.assign(schemes.size(),
                 std::vector<double>(setup.population.size(), 0.0));
  unit.latency_s.assign(schemes.size() * n, 0.0);
  std::atomic<std::uint64_t> rejected{0};
  std::vector<double> probed_at(kTableThreads, 0.0);
  std::vector<std::vector<double>> probe_s(kTableThreads);
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    for_each_on_table_threads(n, [&](std::size_t t, std::size_t k) {
      const std::size_t i = order[k];
      const double start = now_s();
      try {
        const rab::util::trace::Span span("challenge.evaluate");
        unit.mp[s][i] =
            setup.challenge->evaluate(setup.population[i], *schemes[s])
                .overall;
      } catch (const std::exception&) {
        ++rejected;
        unit.mp[s][i] = std::nan("");
      }
      const double end = now_s();
      unit.latency_s[s * n + k] = end - start;
      if (probe && end - probed_at[t] >= kProbeInterval_s) {
        probe_s[t].push_back(SpeedProbe::run_once(t));
        probed_at[t] = now_s();
      }
    });
  }
  SpeedProbe speed;
  double probe_total_s = 0.0;
  for (const std::vector<double>& runs : probe_s) {
    for (const double run_s : runs) {
      speed.add(run_s);
      probe_total_s += run_s;
    }
  }
  unit.wall_s = now_s() - t0 - probe_total_s / kTableThreads;
  unit.cpu_s = cpu_s() - cpu0 - probe_total_s;
  unit.scale = speed.scale();
  unit.rejected = rejected;
  return unit;
}

double max_of(const std::vector<double>& v) {
  double best = 0.0;
  for (const double x : v) best = std::max(best, x);
  return best;
}

/// Per-call self time of challenge.evaluate: its duration minus the
/// aggregation span it wraps (same thread, one level down).
std::vector<double> mp_self_times(
    const std::vector<rab::util::trace::SpanRecord>& spans) {
  using Record = rab::util::trace::SpanRecord;
  std::map<std::uint32_t, std::vector<const Record*>> aggs;  // by thread
  for (const auto& s : spans) {
    if (s.name.substr(0, 12) == "aggregation.") aggs[s.tid].push_back(&s);
  }
  for (auto& [tid, list] : aggs) {
    std::sort(list.begin(), list.end(), [](const Record* x, const Record* y) {
      return x->start_ns < y->start_ns;
    });
  }
  std::vector<double> out;
  for (const auto& e : spans) {
    if (e.name != "challenge.evaluate") continue;
    const std::vector<const Record*>& mine = aggs[e.tid];
    const auto it = std::lower_bound(
        mine.begin(), mine.end(), e.start_ns,
        [](const Record* x, std::uint64_t t) { return x->start_ns < t; });
    double child = 0.0;
    if (it != mine.end() && (*it)->start_ns + (*it)->duration_ns <=
                                e.start_ns + e.duration_ns) {
      child = static_cast<double>((*it)->duration_ns);
    }
    out.push_back((static_cast<double>(e.duration_ns) - child) * 1e-9);
  }
  return out;
}

}  // namespace

void run_paper_table(const Options& options, Result& result) {
  // The table threads are the only parallelism: a one-thread pool runs
  // the loops inside an evaluation (P's) inline on its table thread.
  configure_pool(1);

  // Set-up, several times; the last one is kept.
  SetupTimer setup_timer;
  std::optional<Setup> setup;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    setup.reset();
    setup_timer.time([&] { setup.emplace(build_setup()); });
  }
  setup_timer.report(result);
  result.metrics["challenge.setup.population_s"] = setup->population_s;
  result.metrics["challenge.setup.fair_baseline_s"] = setup->fair_baseline_s;

  std::vector<std::size_t> order(setup->population.size());
  std::iota(order.begin(), order.end(), 0);
  rab::Rng rng(mix_seed(options.seed, 1));
  rng.shuffle(order);

  std::vector<const rab::aggregation::AggregationScheme*> bare;
  for (const auto& s : setup->schemes) bare.push_back(s.get());

  // Fault the probe's buffers in before the first timed unit.
  for (std::size_t t = 0; t < kTableThreads; ++t) {
    (void)SpeedProbe::run_once(t);
  }

  // Timed units, tracing off, until the run's measuring time is spent.
  std::vector<Unit> units;
  const double budget_end = now_s() + (options.trace ? 0.0 : options.seconds);
  do {
    units.push_back(run_unit(*setup, order, bare, true));
  } while (now_s() < budget_end);
  const Unit& first = units.front();

  // ---- output checks -------------------------------------------------
  const std::size_t evals = kSchemes.size() * setup->population.size();
  for (const Unit& unit : units) {
    result.check(unit.rejected == 0,
                 std::to_string(unit.rejected) + " submissions rejected");
    result.check(unit.mp == first.mp || unit.rejected > 0,
                 "repeated table differs from the first");
  }
  std::vector<double> max_mp;
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    bool finite = true;
    for (const double v : first.mp[s]) finite = finite && std::isfinite(v) &&
                                                v >= 0.0;
    result.check(finite, kSchemes[s] + ": MP not finite and >= 0");
    max_mp.push_back(max_of(first.mp[s]));
    char line[96];
    std::snprintf(line, sizeof line, "table: %-6s max MP %.17g",
                  kSchemes[s].c_str(), max_mp.back());
    result.note(line);
  }
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    result.check(std::fabs(max_mp[s] - kPaperMaxMp[s]) <= kTolerance,
                 kSchemes[s] + ": max MP differs from the paper table");
  }
  // The two Sec. V-A SHAPE-CHECK predicates of table_scheme_comparison.
  result.check(max_mp[2] < 0.7 * max_mp[0] && max_mp[2] < 0.95 * max_mp[1],
               "SHAPE-CHECK: P max MP well below SA and BF");
  result.check(max_mp[1] > 0.5 * max_mp[0],
               "SHAPE-CHECK: BF max MP comparable to SA");
  // Spot checks against the materialized reference path (outside timing).
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(setup->population.size()) - 1));
      const Submission& sub = setup->population[i];
      const double reference =
          setup->challenge->metric()
              .evaluate_dataset(setup->challenge->apply(sub), *bare[s])
              .overall;
      result.check(std::fabs(reference - first.mp[s][i]) <= kTolerance,
                   kSchemes[s] + ": overlay MP differs from the reference "
                                 "path for " + sub.label);
    }
  }

  // wall_s is in seconds of the reference core: the measured seconds times
  // the unit's probe scale. The measured ones are printed too.
  std::vector<double> walls;
  std::vector<double> raw_walls;
  std::vector<double> cpus;
  std::vector<double> scales;
  for (const Unit& unit : units) {
    walls.push_back(unit.wall_s * unit.scale);
    raw_walls.push_back(unit.wall_s);
    cpus.push_back(unit.cpu_s);
    scales.push_back(unit.scale);
  }
  const double wall = median(walls);
  result.note(list_note("unit wall_s measured", raw_walls));
  result.note(list_note("unit cpu_s measured", cpus));
  result.note(list_note("unit speed scale", scales));
  result.metrics["wall_s"] = wall;
  result.metrics["throughput_per_s"] = static_cast<double>(evals) / wall;
  result.metrics["challenge.evaluate_ms.p50"] =
      quantile(first.latency_s, 0.5) * 1e3;
  result.metrics["challenge.evaluate_ms.p99"] =
      quantile(first.latency_s, 0.99) * 1e3;
  char line[160];
  std::snprintf(line, sizeof line,
                "paper-table: %zu units, %zu MP evaluations each on %zu "
                "threads, evaluate latency p50 %.3f ms p99 %.3f ms (n=%zu)",
                units.size(), evals, kTableThreads,
                quantile(first.latency_s, 0.5) * 1e3,
                quantile(first.latency_s, 0.99) * 1e3,
                first.latency_s.size());
  result.note(line);
  if (!options.trace) return;

  // ---- traced unit ---------------------------------------------------
  std::vector<std::unique_ptr<TracedScheme>> traced;
  for (const std::string& spec : kSchemes) {
    traced.push_back(std::make_unique<TracedScheme>(
        rab::aggregation::make_scheme(spec), scheme_span(spec)));
  }
  const double hits0 = counter_value("cache.hits");
  const double partial0 = counter_value("cache.partial_hits");
  const double misses0 = counter_value("cache.misses");
  const double records0 = counter_value("trust.records");
  const double tasks0 = counter_value("pool.tasks");
  Unit traced_unit_result;
  const auto spans = traced_unit(
      [&] { traced_unit_result = run_unit(*setup, order, traced, false); });
  result.check(traced_unit_result.mp == first.mp,
               "traced table differs from the untraced table");
  const double hits = counter_value("cache.hits") - hits0;
  const double lookups = hits + counter_value("cache.partial_hits") -
                         partial0 + counter_value("cache.misses") - misses0;
  result.metrics["detectors.cache.hit_frac"] =
      lookups > 0.0 ? hits / lookups : 0.0;
  result.metrics["trust.records"] = counter_value("trust.records") - records0;
  result.metrics["util.pool.tasks"] = counter_value("pool.tasks") - tasks0;

  const SpanProfile profile = profile_spans(spans, "bench.unit");
  add_profile_metrics(profile, first.wall_s, result);
  result.metrics["challenge.mp.self_ms.p50"] =
      median(mp_self_times(spans)) * 1e3;

  // Side calls, outside the traced unit: the overlay each evaluation
  // builds, and the collusion finder SA+CG runs on it. Both are called
  // from inside the program, so their share of the traced wall is moved
  // from the calling layer (challenge, aggregation) to their own layer.
  std::vector<double> build_s;
  std::vector<double> find_s;
  double groups = 0.0;
  for (int pass = 0; pass < 2; ++pass) {  // the first pass warms caches
    build_s.clear();
    for (const Submission& sub : setup->population) {
      const double t0 = now_s();
      const rab::rating::DatasetOverlay overlay(setup->challenge->fair(),
                                                sub.ratings);
      build_s.push_back(now_s() - t0);
    }
  }
  for (const Submission& sub : setup->population) {
    const rab::rating::DatasetOverlay overlay(setup->challenge->fair(),
                                              sub.ratings);
    const double t0 = now_s();
    groups += static_cast<double>(
        rab::trust::find_collusion_groups(overlay).size());
    find_s.push_back(now_s() - t0);
  }
  const double n = static_cast<double>(setup->population.size());
  result.metrics["rating.overlay.build_us.p50"] = median(build_s) * 1e6;
  result.metrics["trust.collusion.find_ms.p50"] = median(find_s) * 1e3;
  result.metrics["trust.collusion.find_ms.p99"] = quantile(find_s, 0.99) * 1e3;
  result.metrics["trust.collusion.groups_per_call"] = groups / n;
  // Thread seconds of the traced unit: its wall on each table thread.
  const double thread_s =
      profile.wall_s * static_cast<double>(kTableThreads);
  if (thread_s > 0.0) {
    const double rating_share = std::min(
        std::accumulate(build_s.begin(), build_s.end(), 0.0) *
            static_cast<double>(kSchemes.size()) / thread_s,
        result.metrics["layer.challenge.share"]);
    const double trust_share = std::min(
        std::accumulate(find_s.begin(), find_s.end(), 0.0) / thread_s,
        result.metrics["aggregation.sa-cg.share"]);
    result.metrics["layer.rating.share"] += rating_share;
    result.metrics["layer.challenge.share"] -= rating_share;
    result.metrics["layer.trust.share"] += trust_share;
    result.metrics["layer.aggregation.share"] -= trust_share;
  }
}

}  // namespace perfbench
