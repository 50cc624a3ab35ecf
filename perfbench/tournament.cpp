// tournament: core::run_tournament on the EXPERIMENTS.md 5x5 recipe (SA,
// SA+CG, MED, ENT, P against the five attack families; Procedure-2 region
// search, 200 MP evaluations per cell) at tournament seed 1, so every run
// checks the documented matrix; the workload seed picks the cell that is
// recomputed outside the library's loop.
//
// The traced run cannot put spans inside run_tournament, so it re-runs the
// matrix through the same public pieces run_tournament is made of — one
// region_search per cell over the pool, probes from AttackGenerator /
// SquadGenerator, scores from MpMetric::evaluate_overall — with spans
// around each, and checks that every cell equals the library's.
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aggregation/factory.hpp"
#include "bench.hpp"
#include "challenge/challenge.hpp"
#include "challenge/squad.hpp"
#include "core/attack_generator.hpp"
#include "core/tournament.hpp"
#include "span_tree.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

using rab::challenge::Challenge;
using rab::core::TournamentCell;
using rab::core::TournamentOptions;

constexpr std::uint64_t kChallengeSeed = 20070425;
constexpr std::uint64_t kTournamentSeed = 1;
constexpr std::size_t kSetupRepeats = 5;
constexpr double kTolerance = 1e-9;

TournamentOptions recipe() {
  TournamentOptions options;
  options.schemes = {"SA", "SA+CG", "MED", "ENT", "P"};
  options.attacks = {"indep-random", "indep-heuristic", "squad-pre",
                     "squad-sybil", "squad-osc"};
  options.seed = kTournamentSeed;
  return options;
}

/// Best MP per cell of the documented matrix (seed 1), scheme-major, as
/// the default fast-FP build computes it; EXPERIMENTS.md prints them to
/// three decimals. Strict FP moves them by ~1e-12, inside kTolerance.
constexpr double kDocumentedBestMp[] = {
    3.9730424707739407, 3.9743556667446889, 3.9988764889225115,
    4.0290959929650709, 2.4594757608807072,  // SA
    3.0744494754041338, 1.9294901342278661, 3.6809485587781285,
    4.0335291954679349, 2.4881106226077843,  // SA+CG
    3.0, 3.0, 3.0, 3.0, 2.0,                 // MED
    2.8833439197777517, 2.3326382756635504, 2.1383371991284168,
    1.9265239715554809, 1.2587280227863054,  // ENT
    1.2716335199826014, 1.0984225696652787, 2.3527868700525989,
    2.2757536978736197, 1.3188898390581505,  // P
};
constexpr std::size_t kDocumentedRounds = 5;

/// run_tournament's squad presets (core/tournament.cpp).
rab::challenge::SquadConfig squad_preset(const std::string& attack,
                                         const Challenge& challenge,
                                         const TournamentOptions& options) {
  rab::challenge::SquadConfig config;
  config.squad_size = challenge.config().attack_raters;
  if (attack == "squad-pre" || attack == "squad-sybil") {
    config.pre_days = 30.0;
    config.strike_offset_days = 35.0;
    config.strike_days = options.duration_days;
    if (attack == "squad-sybil") config.churn_rate = 0.5;
  } else {
    config.strike_offset_days = options.offset_days;
    config.strike_days = 70.0;
    config.duty_cycle = 0.6;
  }
  return config;
}

/// One cell the way run_tournament computes it, with spans around the
/// probe generator, the MP metric and (through TracedScheme) the scheme.
TournamentCell run_cell(const Challenge& challenge,
                        const TournamentOptions& options, std::size_t cell) {
  const rab::util::trace::Span span("core.cell");
  const std::string& spec = options.schemes[cell / options.attacks.size()];
  const std::string& attack = options.attacks[cell % options.attacks.size()];
  const TracedScheme scheme(rab::aggregation::make_scheme(spec),
                            scheme_span(spec));
  const std::uint64_t stream_base = static_cast<std::uint64_t>(cell) << 20;
  std::optional<rab::challenge::SquadGenerator> squad;
  rab::challenge::SquadConfig preset;
  std::optional<rab::core::AttackGenerator> independent;
  rab::core::AttackProfile profile;
  if (attack.rfind("squad-", 0) == 0) {
    squad.emplace(challenge, options.seed);
    preset = squad_preset(attack, challenge, options);
  } else {
    independent.emplace(challenge, options.seed);
    profile.duration_days = options.duration_days;
    profile.offset_days = options.offset_days;
    profile.correlation = attack == "indep-heuristic"
                              ? rab::core::CorrelationMode::kHeuristic
                              : rab::core::CorrelationMode::kRandom;
  }
  // Called concurrently when the cell's probes fan out; reads only.
  const rab::core::AttackEvaluator evaluate = [&](double bias, double sigma,
                                                  std::size_t trial) {
    std::optional<rab::challenge::Submission> submission;
    {
      const rab::util::trace::Span gen("core.probe_gen");
      if (squad) {
        rab::challenge::SquadConfig config = preset;
        config.bias = bias;
        config.sigma = sigma;
        submission.emplace(squad->generate(config, stream_base + trial));
      } else {
        rab::core::AttackProfile probe = profile;
        probe.bias = bias;
        probe.sigma = sigma;
        submission.emplace(
            independent->generate(probe, stream_base + trial));
      }
    }
    const rab::util::trace::Span mp("challenge.mp");
    return challenge.metric().evaluate_overall(*submission, scheme);
  };
  const auto search = rab::core::region_search(options.search, evaluate);
  TournamentCell out;
  out.scheme = spec;
  out.attack = attack;
  out.best_mp = search.best_mp;
  out.rounds = search.rounds.size();
  out.evaluations = search.rounds.size() * options.search.grid *
                    options.search.grid * options.search.trials;
  return out;
}

/// Runs one cell alone on a pool worker: its region search's nested
/// parallel_for then runs inline, single-threaded, as inside the matrix.
TournamentCell run_cell_alone(const Challenge& challenge,
                              const TournamentOptions& options,
                              std::size_t cell, double& seconds) {
  std::promise<TournamentCell> done;
  auto future = done.get_future();
  rab::util::global_pool().submit([&] {
    try {
      const double t0 = now_s();
      TournamentCell out = run_cell(challenge, options, cell);
      seconds = now_s() - t0;
      done.set_value(std::move(out));
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  return future.get();
}

bool same_cell(const TournamentCell& a, const TournamentCell& b) {
  return a.scheme == b.scheme && a.attack == b.attack &&
         a.rounds == b.rounds && a.evaluations == b.evaluations &&
         std::fabs(a.best_mp - b.best_mp) <= kTolerance;
}

std::unique_ptr<Challenge> build_setup(const TournamentOptions& options,
                                       double& fair_baseline_s) {
  auto challenge =
      std::make_unique<Challenge>(Challenge::make_default(kChallengeSeed));
  const double t0 = now_s();
  for (const std::string& spec : options.schemes) {
    const auto scheme = rab::aggregation::make_scheme(spec);
    (void)challenge->metric().evaluate_overall(rab::challenge::Submission{},
                                               *scheme);
  }
  fair_baseline_s = now_s() - t0;
  return challenge;
}

}  // namespace

void run_tournament(const Options& options, Result& result) {
  const std::size_t threads = configure_pool(4);
  const TournamentOptions recipe_options = recipe();
  const std::size_t n_cells =
      recipe_options.schemes.size() * recipe_options.attacks.size();

  SetupTimer setup_timer;
  std::unique_ptr<Challenge> challenge;
  double fair_baseline_s = 0.0;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    challenge.reset();
    setup_timer.time(
        [&] { challenge = build_setup(recipe_options, fair_baseline_s); });
  }
  setup_timer.report(result);
  result.metrics["challenge.setup.fair_baseline_s"] = fair_baseline_s;

  std::vector<rab::core::TournamentResult> units;
  std::vector<double> walls;
  std::vector<double> cpus;
  const double budget_end = now_s() + (options.trace ? 0.0 : options.seconds);
  do {
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    units.push_back(rab::core::run_tournament(*challenge, recipe_options));
    walls.push_back(now_s() - t0);
    cpus.push_back(cpu_s() - cpu0);
  } while (now_s() < budget_end);
  const std::vector<TournamentCell>& cells = units.front().cells;

  // ---- output checks -------------------------------------------------
  std::size_t evaluations = 0;
  result.check(cells.size() == n_cells, "matrix has every cell");
  for (const TournamentCell& c : cells) {
    evaluations += c.evaluations;
    result.check(c.evaluations == c.rounds * recipe_options.search.grid *
                                      recipe_options.search.grid *
                                      recipe_options.search.trials,
                 c.scheme + "/" + c.attack + ": evaluations != rounds*probes");
    result.check(std::isfinite(c.best_mp) && c.best_mp >= 0.0,
                 c.scheme + "/" + c.attack + ": best MP not finite");
  }
  for (const auto& unit : units) {
    bool same = unit.cells.size() == cells.size();
    for (std::size_t i = 0; same && i < cells.size(); ++i) {
      same = unit.cells[i].best_mp == cells[i].best_mp &&
             unit.cells[i].rounds == cells[i].rounds &&
             unit.cells[i].evaluations == cells[i].evaluations;
    }
    result.check(same, "repeated matrix differs from the first");
  }
  for (std::size_t i = 0; i < cells.size() && i < n_cells; ++i) {
    const TournamentCell& c = cells[i];
    result.check(c.rounds == kDocumentedRounds &&
                     std::fabs(c.best_mp - kDocumentedBestMp[i]) <= kTolerance,
                 c.scheme + "/" + c.attack +
                     ": cell differs from the documented matrix");
  }
  // One cell recomputed outside the library's loop (outside timing).
  const std::size_t spot = mix_seed(options.seed, 2) % n_cells;
  double spot_s = 0.0;
  const TournamentCell again =
      run_cell_alone(*challenge, recipe_options, spot, spot_s);
  result.check(same_cell(again, cells[spot]),
               "recomputed cell " + again.scheme + "/" + again.attack +
                   " differs from run_tournament");

  const double wall = median(walls);
  result.note(list_note("unit wall_s", walls));
  result.note(list_note("unit cpu_s", cpus));
  result.metrics["wall_s"] = wall;
  result.metrics["throughput_per_s"] = static_cast<double>(evaluations) / wall;
  result.metrics["core.evaluations"] = static_cast<double>(evaluations);
  char line[200];
  std::snprintf(line, sizeof line,
                "tournament: %zu units, %zu cells, %zu MP evaluations each, "
                "%zu threads",
                units.size(), n_cells, evaluations, threads);
  result.note(line);
  for (const TournamentCell& c : cells) {
    std::snprintf(line, sizeof line,
                  "cell: %-6s %-16s best MP %.17g rounds %zu", c.scheme.c_str(),
                  c.attack.c_str(), c.best_mp, c.rounds);
    result.note(line);
  }
  if (!options.trace) return;

  // ---- traced unit: the matrix through the public pieces ---------------
  const double hits0 = counter_value("cache.hits");
  const double partial0 = counter_value("cache.partial_hits");
  const double misses0 = counter_value("cache.misses");
  const double records0 = counter_value("trust.records");
  const double tasks0 = counter_value("pool.tasks");
  std::vector<TournamentCell> traced_cells(n_cells);
  const auto spans = traced_unit([&] {
    rab::util::parallel_for(n_cells, [&](std::size_t i) {
      traced_cells[i] = run_cell(*challenge, recipe_options, i);
    });
  });
  for (std::size_t i = 0; i < n_cells; ++i) {
    result.check(same_cell(traced_cells[i], cells[i]),
                 "traced cell " + cells[i].scheme + "/" + cells[i].attack +
                     " differs from run_tournament");
  }
  const double hits = counter_value("cache.hits") - hits0;
  const double lookups = hits + counter_value("cache.partial_hits") -
                         partial0 + counter_value("cache.misses") - misses0;
  result.metrics["detectors.cache.hit_frac"] =
      lookups > 0.0 ? hits / lookups : 0.0;
  result.metrics["trust.records"] = counter_value("trust.records") - records0;
  result.metrics["util.pool.tasks"] = counter_value("pool.tasks") - tasks0;
  const SpanProfile profile = profile_spans(spans, "bench.unit");
  add_profile_metrics(profile, walls.front(), result);
  const auto probe = profile.durations_s.find("core.probe_gen");
  if (probe != profile.durations_s.end()) {
    result.metrics["core.probe_gen_us.p50"] = median(probe->second) * 1e6;
  }

  // ---- every cell alone, untraced ---------------------------------------
  std::vector<double> cell_s(n_cells, 0.0);
  for (std::size_t i = 0; i < n_cells; ++i) {
    (void)run_cell_alone(*challenge, recipe_options, i, cell_s[i]);
  }
  double sum = 0.0;
  double max = 0.0;
  for (const double s : cell_s) {
    sum += s;
    max = std::max(max, s);
  }
  result.metrics["core.cell_s.p50"] = median(cell_s);
  result.metrics["core.cell_s.max"] = max;
  result.metrics["core.parallel_eff"] =
      sum / (walls.front() * static_cast<double>(threads));
}

}  // namespace perfbench
