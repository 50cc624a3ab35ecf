// Wall-time attribution of a traced run to the src/ layers.
//
// Spans nest by (thread id, depth). A span that starts a thread's tree on
// another thread than the root span's (a pool worker running part of a
// parallel_for) is hung under the deepest root-thread span that contains
// it. A span's self time is its duration minus the union of its
// children's intervals; when children overlap in time (parallel work), the
// covered part of the parent is split among them in proportion to their
// durations. Every nanosecond of the root interval is therefore counted
// exactly once: layer shares plus the unattributed share sum to 1.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/trace.hpp"

namespace perfbench {

/// The src/ layer a span name belongs to ("scheme.p.aggregate" ->
/// "aggregation", "detector.mc" -> "detectors", "bench.*" -> "bench").
std::string layer_of(std::string_view span_name);

struct SpanProfile {
  double wall_s = 0.0;          ///< root span duration
  double unattributed_s = 0.0;  ///< root time no other span covers
  std::map<std::string, double> layer_s;  ///< wall-weighted self time
  /// Wall-weighted inclusive time per span name (parallel children scaled
  /// as above), for "share of the workload wall" metrics.
  std::map<std::string, double> inclusive_s;
  /// Thread-time totals per span name: summed self time (duration minus the
  /// union of child intervals), in seconds.
  std::map<std::string, double> self_total_s;
  /// Every inclusive duration per span name, in seconds.
  std::map<std::string, std::vector<double>> durations_s;
};

/// Profiles the spans inside the last span named `root_name`. Spans that
/// are not wholly inside the root interval are ignored.
SpanProfile profile_spans(
    const std::vector<rab::util::trace::SpanRecord>& spans,
    std::string_view root_name);

struct Result;

/// Per-layer metrics every traced workload derives the same way from its
/// profiled unit: layer shares, per-scheme aggregation times and shares,
/// detector/monitor/checkpoint/store span totals, and the trace.* checks.
/// `untraced_wall_s` is the same unit's wall time with tracing off.
void add_profile_metrics(const SpanProfile& profile, double untraced_wall_s,
                         Result& result);

}  // namespace perfbench
