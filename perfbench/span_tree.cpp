#include "span_tree.hpp"

#include <algorithm>
#include <utility>

#include "bench.hpp"

namespace perfbench {

namespace {

using rab::util::trace::SpanRecord;

struct Node {
  const SpanRecord* span = nullptr;
  std::uint64_t end = 0;
  std::vector<std::size_t> children;
};

/// Length of the union of [begin, end) intervals, clipped to [lo, hi).
std::uint64_t union_length(std::vector<std::pair<std::uint64_t, std::uint64_t>>
                               intervals,
                           std::uint64_t lo, std::uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t cur_begin = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (auto [b, e] : intervals) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (open && b <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_begin;
    cur_begin = b;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

}  // namespace

std::string layer_of(std::string_view name) {
  const std::string_view head = name.substr(0, name.find('.'));
  if (head == "scheme") return "aggregation";
  if (head == "integrator" || head == "detector" || head == "monitor" ||
      head == "checkpoint" || head == "cache") {
    return "detectors";
  }
  if (head == "serve") return "net";
  if (head == "tournament") return "core";
  if (head == "pool") return "util";
  return std::string(head);
}

SpanProfile profile_spans(const std::vector<SpanRecord>& spans,
                          std::string_view root_name) {
  SpanProfile profile;
  const SpanRecord* root = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == root_name &&
        (root == nullptr || s.start_ns >= root->start_ns)) {
      root = &s;
    }
  }
  if (root == nullptr) return profile;
  const std::uint64_t lo = root->start_ns;
  const std::uint64_t hi = root->start_ns + root->duration_ns;

  std::vector<Node> nodes;
  nodes.push_back({root, hi, {}});
  for (const SpanRecord& s : spans) {
    if (&s == root) continue;
    if (s.start_ns < lo || s.start_ns + s.duration_ns > hi) continue;
    nodes.push_back({&s, s.start_ns + s.duration_ns, {}});
  }

  // Per-thread nesting by depth, in start order (parents first on ties).
  std::map<std::uint32_t, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    by_thread[nodes[i].span->tid].push_back(i);
  }
  std::vector<std::size_t> parent(nodes.size(), 0);
  std::vector<bool> has_parent(nodes.size(), false);
  for (auto& [tid, ids] : by_thread) {
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      const SpanRecord& x = *nodes[a].span;
      const SpanRecord& y = *nodes[b].span;
      if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
      return x.depth < y.depth;
    });
    std::vector<std::size_t> stack;
    for (const std::size_t i : ids) {
      const SpanRecord& s = *nodes[i].span;
      while (!stack.empty() && nodes[stack.back()].span->depth >= s.depth) {
        stack.pop_back();
      }
      if (!stack.empty() && nodes[stack.back()].end >= nodes[i].end) {
        parent[i] = stack.back();
        has_parent[i] = true;
      }
      stack.push_back(i);
    }
  }

  // Trees rooted on other threads hang under the deepest root-thread span
  // containing them: walk up from the last root-thread span starting no
  // later (any containing span is an ancestor of that one).
  const std::vector<std::size_t>& root_thread = by_thread[root->tid];
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (has_parent[i] || nodes[i].span->tid == root->tid) continue;
    const std::uint64_t start = nodes[i].span->start_ns;
    auto it = std::upper_bound(
        root_thread.begin(), root_thread.end(), start,
        [&](std::uint64_t t, std::size_t id) {
          return t < nodes[id].span->start_ns;
        });
    std::size_t host = 0;
    if (it != root_thread.begin()) {
      std::size_t cand = *(it - 1);
      for (;;) {
        if (nodes[cand].end >= nodes[i].end) {
          host = cand;
          break;
        }
        if (!has_parent[cand]) break;
        cand = parent[cand];
      }
    }
    parent[i] = host;
    has_parent[i] = true;
  }
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (!has_parent[i]) parent[i] = 0;  // root-thread span outside the tree
    nodes[parent[i]].children.push_back(i);
  }

  // Attribution, top-down with a weight per node.
  std::vector<std::pair<std::size_t, double>> work{{0, 1.0}};
  while (!work.empty()) {
    const auto [i, weight] = work.back();
    work.pop_back();
    const Node& node = nodes[i];
    const SpanRecord& s = *node.span;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
    double child_sum = 0.0;
    for (const std::size_t c : node.children) {
      intervals.emplace_back(nodes[c].span->start_ns, nodes[c].end);
      child_sum += static_cast<double>(nodes[c].span->duration_ns);
    }
    const double covered =
        static_cast<double>(union_length(intervals, s.start_ns, node.end));
    const double dur = static_cast<double>(s.duration_ns);
    const double self = std::max(dur - covered, 0.0);
    const std::string name(s.name);
    if (i == 0) {
      profile.wall_s = dur * 1e-9;
      profile.unattributed_s = self * 1e-9;
    } else {
      profile.layer_s[layer_of(s.name)] += weight * self * 1e-9;
      profile.inclusive_s[name] += weight * dur * 1e-9;
      profile.self_total_s[name] += self * 1e-9;
      profile.durations_s[name].push_back(dur * 1e-9);
    }
    const double scale = child_sum > 0.0 ? covered / child_sum : 0.0;
    for (const std::size_t c : node.children) {
      work.emplace_back(c, weight * scale);
    }
  }
  return profile;
}

void add_profile_metrics(const SpanProfile& profile, double untraced_wall_s,
                         Result& result) {
  auto& m = result.metrics;
  const double wall = profile.wall_s;
  result.check(wall > 0.0, "traced unit recorded its root span");
  if (!(wall > 0.0)) return;
  for (const char* layer : {"rating", "detectors", "trust", "aggregation",
                            "challenge", "core", "store", "net", "bench"}) {
    const auto it = profile.layer_s.find(layer);
    m[std::string("layer.") + layer + ".share"] =
        it != profile.layer_s.end() ? it->second / wall : 0.0;
  }
  m["trace.unattributed_frac"] = profile.unattributed_s / wall;
  m["trace.overhead_frac"] =
      untraced_wall_s > 0.0 ? wall / untraced_wall_s - 1.0 : 0.0;
  m["trace.dropped_spans"] =
      static_cast<double>(rab::util::trace::dropped_spans());

  auto durations = [&](const char* name) {
    const auto it = profile.durations_s.find(name);
    return it != profile.durations_s.end() ? it->second
                                           : std::vector<double>{};
  };
  auto total_ms = [&](const char* name) {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum * 1e3;
  };
  auto self_ms = [&](const char* name) {
    const auto it = profile.self_total_s.find(name);
    return it != profile.self_total_s.end() ? it->second * 1e3 : 0.0;
  };

  for (const char* key : {"sa", "bf", "p", "med", "ent", "sa-cg"}) {
    const std::string span = std::string("aggregation.") + key;
    const std::vector<double> d = durations(span.c_str());
    m[span + ".eval_ms.p50"] = quantile(d, 0.5) * 1e3;
    m[span + ".eval_ms.p99"] = quantile(d, 0.99) * 1e3;
    const auto it = profile.inclusive_s.find(span);
    m[span + ".share"] =
        it != profile.inclusive_s.end() ? it->second / wall : 0.0;
  }

  m["detectors.integrator.self_ms"] =
      self_ms("integrator.analyze") + self_ms("integrator.analyze_cached");
  m["detectors.mc_ms"] = total_ms("detector.mc");
  m["detectors.arc_ms"] = total_ms("detector.arc") +
                          total_ms("detector.harc") +
                          total_ms("detector.larc");
  m["detectors.hc_ms"] = total_ms("detector.hc");
  m["detectors.me_ms"] = total_ms("detector.me");
  m["detectors.monitor.epoch_ms.p50"] =
      quantile(durations("monitor.epoch"), 0.5) * 1e3;
  m["detectors.monitor.epoch_ms.p99"] =
      quantile(durations("monitor.epoch"), 0.99) * 1e3;
  m["detectors.checkpoint.save_ms"] =
      quantile(durations("checkpoint.save"), 0.5) * 1e3;
  m["store.compact_ms"] = total_ms("store.compact");
}

}  // namespace perfbench
