// perfbench: one command per workload and seed.
//
//   perfbench --workload paper-table|tournament|serve-stream
//             --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that attributes the workload's time to the src/
// layers. Either way every output is checked, and the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; a failed
// check makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory_resource>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/trace.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::size_t configure_pool(std::size_t threads) {
  if (std::getenv("RAB_THREADS") == nullptr) {
    rab::util::set_thread_count(threads);
  }
  return rab::util::thread_count();
}

std::string list_note(const std::string& name,
                      const std::vector<double>& values) {
  std::string out = name + ":";
  char number[32];
  for (const double v : values) {
    std::snprintf(number, sizeof number, " %.6g", v);
    out += number;
  }
  return out;
}

double counter_value(std::string_view name) {
  return static_cast<double>(
      rab::util::metrics::scrape().counter_value(name));
}

namespace {

/// The reference work's only memory, one buffer per probe thread. Taking
/// none from the global allocator keeps the probe from changing the
/// program's heap (a freed 2 MiB block raises glibc's mmap threshold) and a
/// change to the program's allocation from changing the reference.
alignas(std::max_align_t) std::byte
    reference_buffers[kMaxProbeThreads][std::size_t{2} << 20];

/// The reference work: a per-key feedback map copied and updated round by
/// round, with log-gamma and power terms per update.
double reference_work(std::byte* buffer) {
  using Key = std::pair<std::int64_t, std::int64_t>;
  using Map = std::pmr::map<Key, std::pair<double, double>>;
  std::pmr::monotonic_buffer_resource arena(buffer, sizeof reference_buffers[0],
                                            std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&arena);
  Map history(&pool);
  static volatile std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  std::uint64_t x = seed;  // read at run time, so nothing folds away
  double acc = 0.0;
  for (int round = 0; round < 24; ++round) {
    Map next(history, &pool);
    for (int i = 0; i < 400; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const Key key{static_cast<std::int64_t>((x >> 8) % 600),
                    static_cast<std::int64_t>((x >> 24) % 6)};
      const double value = static_cast<double>((x >> 40) % 5 + 1) / 5.0;
      auto& feedback = next[key];
      feedback.first += value;
      feedback.second += 1.0 - value;
      acc += std::lgamma(1.0 + feedback.first) -
             std::lgamma(1.0 + feedback.second) +
             std::pow(value, 1.0 + feedback.second);
    }
    history = std::move(next);
  }
  return acc;
}

/// Keeps the reference work's results.
std::atomic<double> reference_sink{0.0};

}  // namespace

double SpeedProbe::run_once(std::size_t slot) {
  const double t0 = now_s();
  reference_sink.store(reference_work(reference_buffers[slot]),
                       std::memory_order_relaxed);
  return now_s() - t0;
}

void SetupTimer::report(Result& result) const {
  result.metrics["setup_s"] = median(scaled_s_);
  result.note(list_note("setup_s measured", measured_s_));
  result.note(list_note("setup_s scaled", scaled_s_));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

rab::aggregation::AggregateSeries TracedScheme::aggregate(
    const rab::rating::Dataset& data, double bin_days) const {
  rab::util::trace::Span span(span_);
  return inner_->aggregate(data, bin_days);
}

rab::aggregation::AggregateSeries TracedScheme::aggregate_overlay(
    const rab::rating::DatasetOverlay& data, double bin_days,
    const rab::aggregation::AggregateSeries* fair_baseline) const {
  rab::util::trace::Span span(span_);
  return inner_->aggregate_overlay(data, bin_days, fair_baseline);
}

std::string_view scheme_span(const std::string& spec) {
  if (spec == "SA") return "aggregation.sa";
  if (spec == "BF") return "aggregation.bf";
  if (spec == "P") return "aggregation.p";
  if (spec == "MED") return "aggregation.med";
  if (spec == "ENT") return "aggregation.ent";
  if (spec == "SA+CG") return "aggregation.sa-cg";
  return "aggregation.other";
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports with --trace 0, and the
// per-layer metrics every workload reports with --trace 1 (0 where the
// workload leaves that layer idle). BENCHMARK.json lists the same names;
// run.py refuses a result whose names differ.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"layer.rating.share", "ratio"},
    {"layer.detectors.share", "ratio"},
    {"layer.trust.share", "ratio"},
    {"layer.aggregation.share", "ratio"},
    {"layer.challenge.share", "ratio"},
    {"layer.core.share", "ratio"},
    {"layer.store.share", "ratio"},
    {"layer.net.share", "ratio"},
    {"layer.bench.share", "ratio"},
    {"rating.overlay.build_us.p50", "us"},
    {"challenge.setup.population_s", "s"},
    {"challenge.setup.fair_baseline_s", "s"},
    {"challenge.mp.self_ms.p50", "ms"},
    {"challenge.evaluate_ms.p50", "ms"},
    {"challenge.evaluate_ms.p99", "ms"},
    {"aggregation.sa.eval_ms.p50", "ms"},
    {"aggregation.sa.eval_ms.p99", "ms"},
    {"aggregation.sa.share", "ratio"},
    {"aggregation.bf.eval_ms.p50", "ms"},
    {"aggregation.bf.eval_ms.p99", "ms"},
    {"aggregation.bf.share", "ratio"},
    {"aggregation.p.eval_ms.p50", "ms"},
    {"aggregation.p.eval_ms.p99", "ms"},
    {"aggregation.p.share", "ratio"},
    {"aggregation.med.eval_ms.p50", "ms"},
    {"aggregation.med.eval_ms.p99", "ms"},
    {"aggregation.med.share", "ratio"},
    {"aggregation.ent.eval_ms.p50", "ms"},
    {"aggregation.ent.eval_ms.p99", "ms"},
    {"aggregation.ent.share", "ratio"},
    {"aggregation.sa-cg.eval_ms.p50", "ms"},
    {"aggregation.sa-cg.eval_ms.p99", "ms"},
    {"aggregation.sa-cg.share", "ratio"},
    {"trust.collusion.find_ms.p50", "ms"},
    {"trust.collusion.find_ms.p99", "ms"},
    {"trust.collusion.groups_per_call", "count"},
    {"trust.records", "count"},
    {"detectors.integrator.self_ms", "ms"},
    {"detectors.mc_ms", "ms"},
    {"detectors.arc_ms", "ms"},
    {"detectors.hc_ms", "ms"},
    {"detectors.me_ms", "ms"},
    {"detectors.cache.hit_frac", "ratio"},
    {"detectors.monitor.epoch_ms.p50", "ms"},
    {"detectors.monitor.epoch_ms.p99", "ms"},
    {"detectors.checkpoint.save_ms", "ms"},
    {"core.cell_s.p50", "s"},
    {"core.cell_s.max", "s"},
    {"core.parallel_eff", "ratio"},
    {"core.probe_gen_us.p50", "us"},
    {"core.evaluations", "count"},
    {"util.pool.tasks", "count"},
    {"store.appended_ratings", "count"},
    {"store.groups", "count"},
    {"store.bytes", "bytes"},
    {"store.open_ms", "ms"},
    {"store.compact_ms", "ms"},
    {"net.frames", "count"},
    {"net.retry_frac", "ratio"},
    {"net.ingest_ms.p50", "ms"},
    {"net.ingest_ms.p99", "ms"},
    {"net.queue_depth.max", "count"},
    {"net.ack_p50_ms", "ms"},
    {"net.ack_p99_ms", "ms"},
    {"net.drain_lag_s", "s"},
    {"net.restart_s", "s"},
    {"net.server_start_ms", "ms"},
    {"bench.late_p99_ms", "ms"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.dropped_spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-table|tournament|serve-stream --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return options;
}

void print_stamp(const Options& options) {
  const char* env_threads = std::getenv("RAB_THREADS");
  std::printf(
      "env: {\"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"strict_fp\": %s, \"strict_fp_default\": \"%s\", \"nproc\": %u, "
      "\"RAB_THREADS\": \"%s\", \"pool_threads\": %zu, \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      rab::simd::strict_fp() ? "true" : "false", PERFBENCH_STRICT_FP_DEFAULT,
      std::thread::hardware_concurrency(),
      env_threads != nullptr ? env_threads : "", rab::util::thread_count(),
      options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Result result;
  try {
    if (options.workload == "paper-table") {
      perfbench::run_paper_table(options, result);
    } else if (options.workload == "tournament") {
      perfbench::run_tournament(options, result);
    } else if (options.workload == "serve-stream") {
      perfbench::run_serve_stream(options, result);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  result.check(rab::util::trace::dropped_spans() == 0,
               "trace buffers dropped spans");
  result.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();

  for (const std::string& line : result.notes) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& what : result.failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  print_stamp(options);

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    const auto it = result.metrics.find(spec.name);
    const double value = it != result.metrics.end() ? it->second : 0.0;
    char line[160];
    std::snprintf(line, sizeof line, "%-34s %.6g %s", spec.name, value,
                  spec.unit);
    std::printf("metric %s\n", line);
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + number + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
