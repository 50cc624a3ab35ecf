// Shared pieces of the end-to-end benchmark: the result record a
// workload fills, timing and percentile helpers, and the scheme wrapper
// that times calls into the aggregation layer in traced runs.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "aggregation/scheme.hpp"
#include "util/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports: output checks, plus metrics by name. main()
/// prints `metrics` restricted to the mode's metric list (end-to-end or
/// per-layer); `notes` are human-readable lines printed before the result.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failed checks, for stderr
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  /// Counts one checked outcome; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
  [[nodiscard]] bool correct() const { return failed == 0; }
};

/// Seconds on the steady clock (arbitrary epoch).
double now_s();

/// CPU seconds (user + system) this process has used so far.
double cpu_s();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted);
/// 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Builds the global thread pool with `threads` workers unless the
/// RAB_THREADS environment variable pins the count; returns the count in
/// effect.
std::size_t configure_pool(std::size_t threads);

/// Seconds one run of the reference work (see SpeedProbe) takes on an
/// unloaded core of a 2 GHz Xeon, the machine the bounds were set on.
inline constexpr double kReferenceWork_s = 0.0052;

/// Threads the reference work can run on at once.
inline constexpr std::size_t kMaxProbeThreads = 4;

/// Times a fixed piece of work owned by the benchmark (ordered-map copies
/// and lookups plus log-gamma and power terms, the mix MP evaluations spend
/// their time in) between a workload's own calls, on the threads that make
/// them. The work never changes with the program, so its time tracks only
/// the speed the cores give the benchmark at that moment: on a shared host
/// that speed moves by up to 40% over minutes, with the same inputs.
class SpeedProbe {
 public:
  /// Runs the reference work once on buffer `slot` (< kMaxProbeThreads;
  /// threads that run it at once use different slots) and returns the
  /// seconds it took.
  static double run_once(std::size_t slot);
  void add(double run_s) {
    total_s_ += run_s;
    ++runs_;
  }
  /// Factor that turns seconds measured alongside the probe into seconds
  /// of the reference core: kReferenceWork_s / the mean seconds of a run.
  [[nodiscard]] double scale() const {
    return runs_ > 0 ? kReferenceWork_s * static_cast<double>(runs_) / total_s_
                     : 1.0;
  }

 private:
  double total_s_ = 0.0;
  std::size_t runs_ = 0;
};

/// A workload's set-up, timed several times. Each time is scaled by probe
/// runs made just before it on the same thread, since set-up is short
/// enough to fall inside one of the host's slow or fast spells. The factor
/// is the square root of the probe's scale: in a slow spell the set-up
/// code slowed about half as much as the reference work (in log terms), so
/// the full scale overcorrected and no scale undercorrected alike.
class SetupTimer {
 public:
  template <typename Fn>
  void time(Fn&& build) {
    SpeedProbe probe;
    for (std::size_t k = 0; k < kProbeRuns; ++k) {
      probe.add(SpeedProbe::run_once(0));
    }
    const double t0 = now_s();
    build();
    measured_s_.push_back(now_s() - t0);
    scaled_s_.push_back(measured_s_.back() * std::sqrt(probe.scale()));
  }

  /// Sets `setup_s` to the median scaled time and notes both lists.
  void report(Result& result) const;

 private:
  static constexpr std::size_t kProbeRuns = 20;
  std::vector<double> measured_s_;
  std::vector<double> scaled_s_;
};

/// splitmix64: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// "name: v1 v2 ..." (six significant digits), for the notes.
std::string list_note(const std::string& name,
                      const std::vector<double>& values);

/// Current value of a metrics-registry counter (process-wide).
double counter_value(std::string_view name);

/// Runs `fn` with tracing on, inside a root span named "bench.unit", and
/// returns the spans recorded (the buffers are cleared first).
template <typename Fn>
std::vector<rab::util::trace::SpanRecord> traced_unit(Fn&& fn) {
  rab::util::trace::clear();
  rab::util::trace::set_enabled(true);
  {
    const rab::util::trace::Span root("bench.unit");
    fn();
  }
  rab::util::trace::set_enabled(false);
  return rab::util::trace::collect();
}

/// An aggregation scheme forwarded unchanged to `inner`, with a trace span
/// named `span` around every aggregate call. Identity and name forward too,
/// so the MP metric's fair-baseline cache is shared with the bare scheme.
class TracedScheme final : public rab::aggregation::AggregationScheme {
 public:
  TracedScheme(std::unique_ptr<rab::aggregation::AggregationScheme> inner,
               std::string_view span)
      : inner_(std::move(inner)), span_(span) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string identity() const override {
    return inner_->identity();
  }
  [[nodiscard]] rab::aggregation::AggregateSeries aggregate(
      const rab::rating::Dataset& data, double bin_days) const override;
  [[nodiscard]] rab::aggregation::AggregateSeries aggregate_overlay(
      const rab::rating::DatasetOverlay& data, double bin_days,
      const rab::aggregation::AggregateSeries* fair_baseline) const override;

 private:
  std::unique_ptr<rab::aggregation::AggregationScheme> inner_;
  std::string_view span_;  ///< static-storage literal
};

/// Span name used for a scheme spec in traced runs ("aggregation.sa-cg").
std::string_view scheme_span(const std::string& spec);

// Workloads. Each fills `result` with the metrics of its mode.
void run_paper_table(const Options& options, Result& result);
void run_tournament(const Options& options, Result& result);
void run_serve_stream(const Options& options, Result& result);

}  // namespace perfbench
