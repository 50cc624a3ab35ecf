// serve-stream: an in-process net::Server (2 shards, store and checkpoint
// directories, store fsync off) fed over one unix-socket connection by a
// single-threaded open-loop generator at a fixed offered rate. The feed is
// a time-ordered fair feed over a few hundred products with rating squads
// injected so alarms fire; the workload seed generates it. Each unit ends
// with a drain, then a restart on the same directories.
//
// Frames are protocol-v2 sequenced batches, pipelined: frame j is due at
// first_due + j * batch / rate and is sent then, whatever the replies.
// Ack latency is measured from the due time, the unit's wall time runs to
// the drain reply, and a kRetry or kError reply counts as a failed frame
// (it is not resent).
#include <malloc.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "detectors/online_monitor.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "span_tree.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using rab::rating::Rating;

constexpr std::size_t kShards = 2;
constexpr std::size_t kBatch = 512;
constexpr std::uint64_t kFairRatings = 300000;
constexpr std::size_t kProducts = 200;
constexpr std::size_t kRaters = 20000;
constexpr double kDays = 365.0;
constexpr std::size_t kSquads = 8;
constexpr std::size_t kSquadMembers = 40;
constexpr std::size_t kSquadRatingsEach = 3;
/// Offered load, ratings per second: about half of the 90-100k ratings/s
/// this configuration drains when overdriven, on a 4-core x86-64 machine.
constexpr double kOfferedRate = 50000.0;
constexpr std::size_t kSetupRepeats = 5;

/// Everything the serving bit-identity contract covers, per shard.
struct Snapshot {
  std::vector<rab::detectors::Alarm> alarms;
  std::vector<rab::detectors::OnlineEpochStats> epochs;
  std::vector<rab::trust::RaterCounts> trust;
  std::size_t ingested = 0;
  std::size_t resident = 0;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

Snapshot snapshot(const rab::detectors::OnlineMonitor& m) {
  return Snapshot{m.alarms(), m.epoch_stats(), m.trust().export_counts(),
                  m.ingested(), m.resident_ratings()};
}

std::vector<Rating> make_feed(std::uint64_t seed) {
  rab::net::LoadgenConfig shape;
  shape.ratings = kFairRatings;
  shape.products = kProducts;
  shape.raters = kRaters;
  shape.days = kDays;
  shape.seed = mix_seed(seed, 3);
  std::vector<Rating> feed = rab::net::synthetic_feed(shape);
  rab::Rng rng(mix_seed(seed, 4));
  for (std::size_t k = 0; k < kSquads; ++k) {
    const auto product = rab::ProductId(
        rng.uniform_int(0, static_cast<std::int64_t>(kProducts) - 1));
    const double start = rng.uniform(30.0, kDays - 20.0);
    for (std::size_t m = 0; m < kSquadMembers; ++m) {
      const auto rater = rab::RaterId(static_cast<std::int64_t>(
          1'000'000 + k * 1000 + m));
      for (std::size_t j = 0; j < kSquadRatingsEach; ++j) {
        Rating r;
        r.time = start + rng.uniform(0.0, 7.0);
        r.value = std::clamp(rng.gaussian(1.0, 0.4), 0.0, 5.0);
        r.rater = rater;
        r.product = product;
        r.unfair = true;
        feed.push_back(r);
      }
    }
  }
  std::stable_sort(feed.begin(), feed.end(),
                   [](const Rating& a, const Rating& b) {
                     return a.time < b.time;
                   });
  return feed;
}

/// The encoded kRateSeq frames (sequence 1, 2, ...) and their sizes.
struct Frames {
  std::vector<std::string> bytes;
  std::vector<std::size_t> ratings;
};

Frames encode_feed(const std::vector<Rating>& feed) {
  Frames frames;
  for (std::size_t i = 0; i < feed.size(); i += kBatch) {
    const std::size_t n = std::min(kBatch, feed.size() - i);
    const std::uint64_t seq = frames.bytes.size() + 1;
    frames.bytes.push_back(rab::net::encode_frame(
        {rab::net::FrameType::kRateSeq,
         rab::net::encode_rate_seq_payload(seq, {feed.data() + i, n})}));
    frames.ratings.push_back(n);
  }
  return frames;
}

rab::net::ServeConfig serve_config(const fs::path& dir,
                                   const std::string& socket) {
  rab::net::ServeConfig config;
  config.listen.is_unix = true;
  config.listen.host = socket;
  config.shards = kShards;
  config.monitor.epoch_days = 7.0;
  config.monitor.retention_days = 90.0;
  config.monitor.store_fsync = false;
  config.monitor.checkpoint_dir = (dir / "ckpt").string();
  config.monitor.store_dir = (dir / "store").string();
  return config;
}

/// A server running its accept loop on a background thread; the
/// destructor drains and joins even when a check throws.
class RunningServer {
 public:
  explicit RunningServer(const rab::net::ServeConfig& config)
      : server_(config) {
    server_.start();
    thread_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~RunningServer() { join(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  /// Waits for the accept loop to end (after a kDrain frame, or asks for
  /// a drain first when `request` is set). Returns run()'s error, if any.
  std::string join(bool request = true) {
    if (thread_.joinable()) {
      if (request) server_.request_drain();
      thread_.join();
    }
    return error_;
  }

  rab::net::Server& server() { return server_; }

 private:
  rab::net::Server server_;
  std::string error_;
  std::thread thread_;  ///< last: uses server_ and error_
};

double directory_bytes(const fs::path& dir) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<double>(entry.file_size(ec));
    }
  }
  return total;
}

struct Histogram {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
};

Histogram histogram_now(const char* name) {
  const rab::util::metrics::Snapshot snap = rab::util::metrics::scrape();
  const auto* h = snap.histogram_of(name);
  if (h == nullptr) return {};
  return {h->bounds, h->buckets};
}

/// Quantile of the observations between two scrapes, as the upper bound
/// of the bucket holding it (the histogram's own resolution).
double histogram_quantile(const Histogram& before, const Histogram& after,
                          double q) {
  std::vector<std::uint64_t> delta(after.buckets.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = after.buckets[i] -
               (i < before.buckets.size() ? before.buckets[i] : 0);
    total += delta[i];
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    seen += delta[i];
    if (static_cast<double>(seen) >= rank) {
      return i < after.bounds.size() ? after.bounds[i]
                                     : after.bounds.back();
    }
  }
  return after.bounds.empty() ? 0.0 : after.bounds.back();
}

void sleep_until(double deadline, int fd, bool& readable) {
  const double wait = deadline - now_s();
  timespec ts{};
  if (wait > 0.0) {
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) *
                                   1e9);
  }
  pollfd pfd{fd, POLLIN, 0};
  const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
  if (rc < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
  readable = rc > 0;
}

struct UnitOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double server_start_s = 0.0;
  double drain_lag_s = 0.0;
  double restart_s = 0.0;
  std::vector<double> ack_s;   ///< per frame, from its due time
  std::vector<double> late_s;  ///< per frame, send time minus due time
  std::uint64_t sent = 0;
  std::uint64_t accepted = 0;
  std::uint64_t failed_frames = 0;
  double queue_max = 0.0;
  double store_bytes = 0.0;
  std::vector<Snapshot> drained;
  std::vector<Snapshot> restarted;
  bool restart_stats_ok = false;
  std::string error;
};

UnitOutcome run_unit(const Frames& frames, const fs::path& dir,
                     const std::string& socket) {
  UnitOutcome out;
  const rab::net::ServeConfig config = serve_config(dir, socket);
  const double t_start = now_s();
  auto running = std::make_unique<RunningServer>(config);
  out.server_start_s = now_s() - t_start;

  rab::net::Client client(config.listen);
  (void)client.roundtrip({rab::net::FrameType::kHello, ""});
  const std::size_t n = frames.bytes.size();
  const double pace = static_cast<double>(kBatch) / kOfferedRate;
  const double cpu0 = cpu_s();
  const double first_due = now_s() + 0.01;
  out.ack_s.reserve(n);
  out.late_s.reserve(n);
  std::size_t next = 0;
  std::size_t acked = 0;
  double last_ack = first_due;
  {
    const rab::util::trace::Span feed_span("bench.feed");
    while (acked < n) {
      const double due = first_due + static_cast<double>(next) * pace;
      if (next < n && now_s() >= due) {
        const rab::util::trace::Span send("bench.send");
        const double sent_at = now_s();
        client.send_raw(frames.bytes[next]);
        out.late_s.push_back(sent_at - due);
        out.sent += frames.ratings[next];
        ++next;
        continue;
      }
      bool readable = false;
      sleep_until(next < n ? due : now_s() + 1.0, client.fd(), readable);
      if (!readable) continue;
      const rab::net::Frame reply = [&] {
        const rab::util::trace::Span recv("bench.recv");
        return client.read_reply();
      }();
      last_ack = now_s();
      out.ack_s.push_back(last_ack -
                          (first_due + static_cast<double>(acked) * pace));
      if (reply.type == rab::net::FrameType::kOk) {
        out.accepted +=
            rab::net::decode_rate_ack_payload(reply.payload).accepted;
      } else {
        ++out.failed_frames;
      }
      ++acked;
      out.queue_max = std::max(out.queue_max, rab::util::metrics::scrape()
                                                  .gauge_value(
                                                      "serve.queue.depth"));
    }
    const rab::util::trace::Span drain_span("net.drain");
    (void)client.drain();
  }
  const double drained_at = now_s();
  out.cpu_s = cpu_s() - cpu0;
  out.wall_s = drained_at - first_due;
  out.drain_lag_s = drained_at - last_ack;
  out.error = running->join(false);
  for (std::size_t s = 0; s < kShards; ++s) {
    out.drained.push_back(snapshot(running->server().monitor(s)));
  }
  running.reset();
  out.store_bytes = directory_bytes(dir / "store");

  // Restart on the drained directories: start -> first ping answered.
  {
    const double t0 = now_s();
    RunningServer again(config);
    rab::net::Client probe(config.listen);
    (void)probe.ping();
    out.restart_s = now_s() - t0;
    std::uint64_t ingested = 0;
    for (const Snapshot& s : out.drained) ingested += s.ingested;
    const std::string stats = probe.stats();
    out.restart_stats_ok =
        stats.find("],\"ingested\":" + std::to_string(ingested) + ",") !=
        std::string::npos;
    (void)probe.drain();
    const std::string error = again.join(false);
    if (out.error.empty()) out.error = error;
    for (std::size_t s = 0; s < kShards; ++s) {
      out.restarted.push_back(snapshot(again.server().monitor(s)));
    }
  }
  return out;
}

/// The offline reference: one monitor per shard over its subfeed, same
/// analysis configuration, explicit flush.
std::vector<Snapshot> offline_reference(const std::vector<Rating>& feed,
                                        const rab::net::ServeConfig& config) {
  rab::detectors::OnlineConfig plain = config.monitor;
  plain.checkpoint_dir.clear();
  plain.store_dir.clear();
  std::vector<Snapshot> out;
  for (std::size_t s = 0; s < config.shards; ++s) {
    rab::detectors::OnlineMonitor monitor(plain);
    for (const Rating& r : feed) {
      if (rab::net::shard_of(r.product.value(), config.shards) == s) {
        monitor.ingest(r);
      }
    }
    monitor.flush();
    out.push_back(snapshot(monitor));
  }
  return out;
}

}  // namespace

void run_serve_stream(const Options& options, Result& result) {
  // 2 shard workers + 1 connection thread + this generator thread; the
  // analysis pool runs inline on the shard workers.
  const std::size_t threads = configure_pool(1);
  const fs::path work =
      fs::path(".perfbench_work") / ("serve-" + std::to_string(::getpid()));
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string socket = (work / "s.sock").string();
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
      fs::remove(dir.parent_path(), ec);  // only when no other run uses it
    }
  } cleanup{work};

  // Set-up, several times: generate and encode the feed, start a server.
  SetupTimer setup_timer;
  std::vector<Rating> feed;
  Frames frames;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const fs::path dir = work / ("setup-" + std::to_string(r));
    std::optional<RunningServer> server;
    setup_timer.time([&] {
      feed = make_feed(options.seed);
      frames = encode_feed(feed);
      server.emplace(serve_config(dir, socket));
    });
    result.check(server->join().empty(), "set-up server drained cleanly");
  }
  setup_timer.report(result);

  auto counters = [] {
    return std::vector<double>{
        counter_value("serve.frames"),     counter_value("serve.retries"),
        counter_value("serve.rejected"),   counter_value("serve.errors"),
        counter_value("store.appended_ratings"),
        counter_value("store.groups"),     counter_value("trust.records"),
        counter_value("pool.tasks"),       counter_value("cache.hits"),
        counter_value("cache.partial_hits"),
        counter_value("cache.misses")};
  };

  std::vector<UnitOutcome> units;
  std::vector<double> before;
  std::vector<double> after;
  Histogram ingest_before;
  Histogram ingest_after;
  std::vector<rab::util::trace::SpanRecord> spans;
  const double budget_end = now_s() + options.seconds;
  for (std::size_t k = 0;; ++k) {
    const fs::path dir = work / ("unit-" + std::to_string(k));
    const bool traced = options.trace && k == 1;
    if (traced) {
      before = counters();
      ingest_before = histogram_now("serve.ingest.seconds");
      spans = traced_unit(
          [&] { units.push_back(run_unit(frames, dir, socket)); });
      after = counters();
      ingest_after = histogram_now("serve.ingest.seconds");
      result.check(after[2] == before[2], "serve.rejected is 0");
      result.check(after[3] == before[3], "serve.errors is 0");
    } else {
      const std::vector<double> c0 = counters();
      units.push_back(run_unit(frames, dir, socket));
      const std::vector<double> c1 = counters();
      result.check(c1[2] - c0[2] == 0.0, "serve.rejected is 0");
      result.check(c1[3] - c0[3] == 0.0, "serve.errors is 0");
    }
    fs::remove_all(dir);
    // Hand the unit's freed heap back, so every unit starts from the same
    // heap and peak_rss_mb is one unit's peak: without it, later units
    // pushed the peak from 105 to 115 MB in some runs and not others.
    malloc_trim(0);
    if (options.trace ? k == 1 : now_s() >= budget_end) break;
  }

  // ---- output checks (the reference is computed outside timing) --------
  const std::vector<Snapshot> reference =
      offline_reference(feed, serve_config(work, socket));
  std::size_t alarms = 0;
  for (const Snapshot& s : reference) alarms += s.alarms.size();
  for (const UnitOutcome& u : units) {
    std::uint64_t ingested = 0;
    for (const Snapshot& s : u.drained) ingested += s.ingested;
    result.check(u.error.empty(), "server run: " + u.error);
    result.check(u.failed_frames == 0,
                 std::to_string(u.failed_frames) + " kRetry/kError frames");
    result.check(u.sent == feed.size() && u.accepted == u.sent &&
                     ingested == u.sent,
                 "sent " + std::to_string(u.sent) + ", accepted " +
                     std::to_string(u.accepted) + ", ingested " +
                     std::to_string(ingested));
    result.check(u.drained == reference,
                 "drained shards differ from the offline per-shard monitors");
    result.check(u.restart_stats_ok, "restarted server reports the drained "
                                     "ingest count");
    result.check(u.restarted == u.drained,
                 "restarted state differs from the drained state");
  }
  result.check(alarms > 0, "the injected squads raise alarms");

  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> rates;
  for (const UnitOutcome& u : units) {
    walls.push_back(u.wall_s);
    cpus.push_back(u.cpu_s);
    rates.push_back(static_cast<double>(u.sent) / u.wall_s);
  }
  result.metrics["wall_s"] = median(walls);
  result.note(list_note("unit wall_s", walls));
  result.note(list_note("unit cpu_s", cpus));
  result.metrics["throughput_per_s"] = median(rates);

  const UnitOutcome& first = units.front();
  std::vector<double> ack_s;
  std::vector<double> late_s;
  for (const UnitOutcome& u : units) {
    ack_s.insert(ack_s.end(), u.ack_s.begin(), u.ack_s.end());
    late_s.insert(late_s.end(), u.late_s.begin(), u.late_s.end());
  }
  auto& m = result.metrics;
  m["net.ack_p50_ms"] = quantile(ack_s, 0.5) * 1e3;
  m["net.ack_p99_ms"] = quantile(ack_s, 0.99) * 1e3;
  m["net.drain_lag_s"] = first.drain_lag_s;
  m["net.restart_s"] = first.restart_s;
  m["net.server_start_ms"] = first.server_start_s * 1e3;
  m["bench.late_p99_ms"] = quantile(late_s, 0.99) * 1e3;
  m["net.queue_depth.max"] = first.queue_max;
  m["store.bytes"] = first.store_bytes;
  char line[240];
  std::snprintf(
      line, sizeof line,
      "serve-stream: %zu units of %zu ratings in %zu frames, offered %.0f "
      "ratings/s, %zu shards, pool %zu; alarms %zu",
      units.size(), feed.size(), frames.bytes.size(), kOfferedRate, kShards,
      threads, alarms);
  result.note(line);
  std::snprintf(
      line, sizeof line,
      "serve-stream: ack from due p50 %.3f ms p99 %.3f ms (n=%zu); "
      "generator late p99 %.3f ms; drain lag %.3f s; restart %.3f s; "
      "admission rate (sent / last ack) %.0f ratings/s",
      m["net.ack_p50_ms"], m["net.ack_p99_ms"], ack_s.size(),
      m["bench.late_p99_ms"], first.drain_lag_s, first.restart_s,
      static_cast<double>(first.sent) /
          (first.wall_s - first.drain_lag_s));
  result.note(line);
  if (!options.trace) return;

  // ---- traced unit ---------------------------------------------------
  auto delta = [&](std::size_t i) { return after[i] - before[i]; };
  m["net.frames"] = delta(0);
  m["net.retry_frac"] = delta(0) > 0.0 ? delta(1) / delta(0) : 0.0;
  m["store.appended_ratings"] = delta(4);
  m["store.groups"] = delta(5);
  m["trust.records"] = delta(6);
  m["util.pool.tasks"] = delta(7);
  const double lookups = delta(8) + delta(9) + delta(10);
  m["detectors.cache.hit_frac"] = lookups > 0.0 ? delta(8) / lookups : 0.0;
  m["net.ingest_ms.p50"] =
      histogram_quantile(ingest_before, ingest_after, 0.5) * 1e3;
  m["net.ingest_ms.p99"] =
      histogram_quantile(ingest_before, ingest_after, 0.99) * 1e3;
  const SpanProfile profile = profile_spans(spans, "bench.feed");
  add_profile_metrics(profile, first.wall_s, result);
  std::vector<double> opens;
  for (const auto& s : spans) {
    if (s.name == "store.open") opens.push_back(1e-9 * s.duration_ns);
  }
  // The last kShards store opens are the restart's.
  if (opens.size() >= kShards) {
    opens.erase(opens.begin(), opens.end() - kShards);
  }
  m["store.open_ms"] = median(opens) * 1e3;
}

}  // namespace perfbench
