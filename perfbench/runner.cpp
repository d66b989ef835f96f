// Pipeline benchmark runner: runs ONE workload of the benchmark in this
// process, through the library's public API only, and prints one JSON
// result line. perfbench/run.py builds this binary, runs every workload
// in a fresh process (so peak RSS is per workload), hands it the
// reference values of perfbench/workloads.json and the committed goldens
// as --expect, and prints the benchmark verdict.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir> [--expect key=value]...
//
// Untraced (--trace 0): closed loop, one job at a time, repeated until
// the timed phases add up to --seconds. Each repetition runs in its own
// forked child (see isolated()); every timing is a median over the
// repetitions, and set-up is sampled at least three times.
//
// Traced (--trace 1): one repetition with forwarding wrappers around
// the sinks, then an outside-in per-layer breakdown. Layers are timed
// from here, around calls into graph/, core/, scenario/ and detection/,
// and their work counters are read from the accessors they expose;
// nothing inside src/ is instrumented. The campaign layers come from a
// "layer replay": the recorded event log is driven again through
// OverlayNetwork / DdsrEngine / StructuralTracker / DynamicConnectivity,
// so each layer's self time is measured on its own. Detection layers a
// workload's timed phase does not run are probed on its recorded trace.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ddsr.hpp"
#include "core/overlay.hpp"
#include "detection/replay.hpp"
#include "detection/replay_grid.hpp"
#include "detection/replay_proc.hpp"
#include "detection/roc.hpp"
#include "graph/dynamic_connectivity.hpp"
#include "graph/generators.hpp"
#include "scenario/engine.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace_io.hpp"
#include "scenario/tracker.hpp"

namespace {

using namespace onion;
using namespace onion::scenario;
using namespace onion::detection;
using graph::NodeId;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// --- workload specs ----------------------------------------------------

/// W1: the 500k leave-heavy scale tier of bench/bench_report.cpp.
ScenarioSpec leave_heavy_500k(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 500'000;
  spec.degree = 10;
  spec.horizon = 10 * kMinute;
  spec.churn.joins_per_hour = 600.0;
  spec.churn.leaves_per_hour = 18'000.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 2 * kMinute;
  takedown.stop = 8 * kMinute;
  takedown.takedowns_per_hour = 6'000.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = kSecond;
  return spec;
}

/// W2: join-heavy growth at 50k, no attack, dense cadence.
ScenarioSpec join_heavy_50k(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 50'000;
  spec.degree = 10;
  spec.horizon = kHour;
  spec.churn.joins_per_hour = 6'000.0;
  spec.churn.leaves_per_hour = 600.0;
  spec.metrics.period = kSecond;
  return spec;
}

/// The pinned 10k campaign of bench/bench_report.cpp (sparse cadence),
/// at `bots` initial bots: W4 runs it at 10k, W3 at 50k.
ScenarioSpec pinned_campaign(std::uint64_t seed, std::size_t bots) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = bots;
  spec.degree = 10;
  spec.horizon = kHour;
  spec.churn.joins_per_hour = 500.0;
  spec.churn.leaves_per_hour = 500.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 15 * kMinute;
  takedown.stop = 45 * kMinute;
  takedown.takedowns_per_hour = 600.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 5 * kMinute;
  return spec;
}

/// The replay populations of bench/trace_stream.cpp.
ReplayConfig replay_populations() {
  ReplayConfig rc;
  rc.seed = 0x5ca1e;
  rc.benign_web = 500;
  rc.benign_tor = 100;
  rc.centralized_bots = 50;
  rc.dga_bots = 50;
  rc.fastflux_bots = 50;
  rc.p2p_bots = 50;
  rc.onion_mean_gap = kMinute;
  return rc;
}

/// W3's grid: eight replay seeds over one trace, all default threshold
/// axes, `workers` threads when run in-process.
ReplayGridConfig grid_config() {
  ReplayGridConfig config;
  config.replay_seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  config.replay = replay_populations();
  config.threads = worker_count();
  return config;
}

// --- result bookkeeping ----------------------------------------------

/// Everything one runner invocation reports. `exact` holds the values
/// that must repeat bit-for-bit (digests and work counts): every
/// repetition is compared with the first and with --expect.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Per-repetition timings; the reported value is their median.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> exact;
  std::map<std::string, std::string> expect;

  /// One operation (campaign, grid cell, sweep) finished; `ok` false
  /// counts it failed.
  void operation(bool ok, std::uint64_t count = 1) {
    attempted += count;
    if (!ok) failed += count;
  }
  void error(std::string message) { errors.push_back(std::move(message)); }
  void sample(const std::string& key, double value) {
    samples[key].push_back(value);
  }

  /// Records an exact value; false (with an error) when it differs from
  /// an earlier repetition or from the reference.
  bool check_exact(const std::string& key, const std::string& value) {
    bool ok = true;
    const auto seen = exact.find(key);
    if (seen != exact.end() && seen->second != value) {
      error(key + " drifted between repetitions: " + seen->second +
            " then " + value);
      ok = false;
    }
    exact.emplace(key, value);
    const auto want = expect.find(key);
    if (want != expect.end() && want->second != value) {
      error(key + " = " + value + ", reference " + want->second);
      ok = false;
    }
    return ok;
  }
  bool check_exact(const std::string& key, std::uint64_t value) {
    return check_exact(key, std::to_string(value));
  }
};

/// Forwards snapshots and accumulates the time spent inside `inner`.
class TimedSnapshotSink final : public SnapshotSink {
 public:
  explicit TimedSnapshotSink(SnapshotSink& inner) : inner_(inner) {}
  void on_snapshot(const MetricsSnapshot& s) override {
    const auto start = Clock::now();
    inner_.on_snapshot(s);
    seconds += since(start);
  }
  double seconds = 0.0;

 private:
  SnapshotSink& inner_;
};

/// Forwards campaign events and accumulates the time spent in `inner`.
class TimedTraceSink final : public TraceSink {
 public:
  explicit TimedTraceSink(TraceSink& inner) : inner_(inner) {}
  void on_begin(const ScenarioSpec& spec,
                const std::vector<NodeId>& initial) override {
    const auto start = Clock::now();
    inner_.on_begin(spec, initial);
    seconds += since(start);
  }
  void on_event(const CampaignEvent& e) override {
    const auto start = Clock::now();
    inner_.on_event(e);
    seconds += since(start);
  }
  double seconds = 0.0;

 private:
  TraceSink& inner_;
};

/// Forwards a streamed capture and accumulates the time spent in `inner`.
class TimedFlowSink final : public FlowSink {
 public:
  explicit TimedFlowSink(FlowSink& inner) : inner_(inner) {}
  void on_relays(const std::vector<HostId>& relays) override {
    const auto start = Clock::now();
    inner_.on_relays(relays);
    seconds += since(start);
  }
  void on_flow(const FlowRecord& f) override {
    const auto start = Clock::now();
    inner_.on_flow(f);
    seconds += since(start);
  }
  void on_host_done(HostId host) override {
    const auto start = Clock::now();
    inner_.on_host_done(host);
    seconds += since(start);
  }
  double seconds = 0.0;

 private:
  FlowSink& inner_;
};

// --- one campaign ------------------------------------------------------

/// The engine's own work counters over run() (construction excluded).
struct EngineCounts {
  std::uint64_t events = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t takedowns = 0;
  std::uint64_t search_steps = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t removed_edges = 0;
  core::DdsrStats ddsr;
};

struct CampaignResult {
  double setup_s = 0.0;   // CampaignEngine construction
  double run_s = 0.0;     // engine.run()
  double finish_s = 0.0;  // TraceWriter::finish (recording only)
  EngineCounts counts;
  std::string snapshot_fingerprint;
  std::string trace_fingerprint;  // recording only
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_chunks = 0;
  bool structure_ok = true;
  // Traced runs only: time inside the wrapped sinks.
  double hash_sink_s = 0.0;
  double write_in_run_s = 0.0;  // trace writer taps during run()
  double write_s = 0.0;         // taps + finish
};

/// The final snapshot's structural fields must equal the from-scratch
/// sweep of the final overlay (the tracker's reference implementation).
bool structure_matches(const MetricsSnapshot& got,
                       const core::OverlayNetwork& net, bool histogram) {
  const MetricsSnapshot want = sweep_structural(net, histogram);
  return got.honest_alive == want.honest_alive &&
         got.sybil_alive == want.sybil_alive &&
         got.honest_edges == want.honest_edges &&
         got.components == want.components &&
         got.largest_component == want.largest_component &&
         got.largest_fraction == want.largest_fraction &&
         got.average_degree == want.average_degree &&
         got.degree_histogram == want.degree_histogram;
}

/// Runs one campaign. With `trace_path`, records it through a
/// TraceWriter; with `timed`, every sink sits behind a timing wrapper.
CampaignResult run_campaign(const ScenarioSpec& spec,
                            const std::string* trace_path, bool timed) {
  CampaignResult r;
  HashSink hash;
  TimedSnapshotSink timed_hash(hash);
  std::optional<trace_io::TraceWriter> writer;
  std::optional<TimedSnapshotSink> timed_writer_snapshots;
  std::optional<TimedTraceSink> timed_writer_events;
  std::vector<SnapshotSink*> sinks;
  sinks.push_back(timed ? static_cast<SnapshotSink*>(&timed_hash) : &hash);
  TraceSink* tap = nullptr;
  if (trace_path != nullptr) {
    writer.emplace(*trace_path);
    if (timed) {
      timed_writer_snapshots.emplace(*writer);
      timed_writer_events.emplace(*writer);
      sinks.push_back(&*timed_writer_snapshots);
      tap = &*timed_writer_events;
    } else {
      sinks.push_back(&*writer);
      tap = &*writer;
    }
  }
  FanoutSink fanout(sinks);

  auto start = Clock::now();
  CampaignEngine engine(spec, fanout, tap);
  r.setup_s = since(start);

  const graph::DynamicConnectivity& dc = engine.tracker().connectivity();
  const graph::Graph& g = engine.overlay().graph();
  const std::uint64_t steps0 = dc.search_steps();
  const std::uint64_t splits0 = dc.splits();
  const std::uint64_t merges0 = dc.merges();
  const std::uint64_t epoch0 = g.mutation_epoch();
  const std::uint64_t edges0 = g.num_edges();

  start = Clock::now();
  const MetricsSnapshot last = engine.run();
  r.run_s = since(start);

  EngineCounts& c = r.counts;
  c.events = engine.events_executed();
  c.joins = engine.counters().joins;
  c.leaves = engine.counters().leaves;
  c.takedowns = engine.counters().takedowns;
  c.search_steps = dc.search_steps() - steps0;
  c.splits = dc.splits() - splits0;
  c.merges = dc.merges() - merges0;
  c.ddsr = engine.ddsr_stats();
  // mutation_epoch counts +1 per node added, per node removed and per
  // edge added or removed; the edge balance separates the two edge kinds.
  const std::uint64_t edge_ops = g.mutation_epoch() - epoch0 - c.joins -
                                 c.leaves - c.takedowns;
  const std::int64_t edge_balance = static_cast<std::int64_t>(g.num_edges()) -
                                    static_cast<std::int64_t>(edges0);
  c.removed_edges = static_cast<std::uint64_t>(
      (static_cast<std::int64_t>(edge_ops) - edge_balance) / 2);

  r.structure_ok =
      structure_matches(last, engine.overlay(), spec.metrics.degree_histogram);
  r.snapshot_fingerprint = hash.hex_digest();
  if (writer) {
    start = Clock::now();
    writer->finish();
    r.finish_s = since(start);
    r.trace_fingerprint = writer->fingerprint();
    r.trace_bytes = writer->bytes_written();
    r.trace_chunks = writer->chunk_count();
  }
  if (timed) {
    r.hash_sink_s = timed_hash.seconds;
    if (writer) {
      r.write_in_run_s =
          timed_writer_snapshots->seconds + timed_writer_events->seconds;
      r.write_s = r.write_in_run_s + r.finish_s;
    }
  }
  return r;
}

/// Checks one campaign's exact values; returns whether all held.
bool check_campaign(Report& report, const CampaignResult& r,
                    const std::string& prefix) {
  bool ok = true;
  if (!r.structure_ok) {
    report.error(prefix + "final snapshot differs from sweep_structural");
    ok = false;
  }
  const EngineCounts& c = r.counts;
  ok &= report.check_exact(prefix + "fingerprint", r.snapshot_fingerprint);
  ok &= report.check_exact(prefix + "events", c.events);
  ok &= report.check_exact(prefix + "joins", c.joins);
  ok &= report.check_exact(prefix + "leaves", c.leaves);
  ok &= report.check_exact(prefix + "takedowns", c.takedowns);
  ok &= report.check_exact(prefix + "search_steps", c.search_steps);
  ok &= report.check_exact(prefix + "splits", c.splits);
  ok &= report.check_exact(prefix + "merges", c.merges);
  ok &= report.check_exact(prefix + "removed_edges", c.removed_edges);
  ok &= report.check_exact(prefix + "repair_edges", c.ddsr.repair_edges_added);
  ok &= report.check_exact(prefix + "prune_edges", c.ddsr.prune_edges_removed);
  ok &= report.check_exact(prefix + "refill_edges", c.ddsr.refill_edges_added);
  ok &= report.check_exact(prefix + "heal_denied",
                           c.ddsr.heal_requests_denied);
  if (!r.trace_fingerprint.empty()) {
    ok &= report.check_exact(prefix + "trace_fingerprint", r.trace_fingerprint);
    ok &= report.check_exact(prefix + "trace_bytes", r.trace_bytes);
    ok &= report.check_exact(prefix + "trace_chunks", r.trace_chunks);
  }
  return ok;
}

/// Runs a campaign as one benchmark operation: exceptions and exact-
/// value mismatches count it failed.
std::optional<CampaignResult> campaign_operation(
    Report& report, const ScenarioSpec& spec, const std::string* trace_path,
    bool timed, const std::string& prefix) {
  try {
    CampaignResult r = run_campaign(spec, trace_path, timed);
    report.operation(check_campaign(report, r, prefix));
    return r;
  } catch (const std::exception& e) {
    report.error(prefix + "campaign threw: " + e.what());
    report.operation(false);
    return std::nullopt;
  }
}

// --- process isolation -----------------------------------------------

void write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    done += static_cast<std::size_t>(n);
  }
}

std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  std::replace(s.begin(), s.end(), '\t', ' ');
  return s;
}

/// Encodes what a repetition added to its (fresh) Report, one
/// tab-separated record per line.
std::string encode(const Report& r) {
  std::string out = "A\t" + std::to_string(r.attempted) + "\t" +
                    std::to_string(r.failed) + "\n";
  char buf[64];
  for (const std::string& e : r.errors) out += "E\t" + one_line(e) + "\n";
  for (const auto& [key, values] : r.samples)
    for (const double v : values) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += "S\t" + key + "\t" + buf + "\n";
    }
  for (const auto& [key, value] : r.exact)
    out += "X\t" + key + "\t" + value + "\n";
  return out;
}

/// Runs one repetition in a forked child, so every repetition starts
/// from the same small process state: the heap a 500k-node campaign
/// leaves behind would otherwise slow the next one. The child's
/// samples, counts and errors merge into `report`; its exact values go
/// through check_exact here, and a mismatch fails all its operations.
void isolated(Report& report, const std::function<void(Report&)>& rep) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    Report child;
    try {
      rep(child);
    } catch (const std::exception& e) {
      child.error(std::string("repetition threw: ") + e.what());
      child.operation(false);
    }
    write_all(fds[1], encode(child));
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string data;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    data.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || data.empty()) {
    report.error("repetition process died");
    report.operation(false);
    return;
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool exact_ok = true;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t end = data.find('\n', pos);
    const std::string line = data.substr(pos, end - pos);
    pos = end == std::string::npos ? data.size() : end + 1;
    const std::size_t t1 = line.find('\t');
    const std::size_t t2 = line.find('\t', t1 + 1);
    const std::string field1 = line.substr(t1 + 1, t2 - t1 - 1);
    const std::string field2 =
        t2 == std::string::npos ? "" : line.substr(t2 + 1);
    switch (line[0]) {
      case 'A':
        attempted = std::stoull(field1);
        failed = std::stoull(field2);
        break;
      case 'E': report.error(line.substr(t1 + 1)); break;
      case 'S': report.sample(field1, std::stod(field2)); break;
      case 'X': exact_ok &= report.check_exact(field1, field2); break;
      default: break;
    }
  }
  report.attempted += attempted;
  report.failed += exact_ok ? failed : attempted;
}

double total(const Report& report, const std::string& key) {
  const auto it = report.samples.find(key);
  if (it == report.samples.end()) return 0.0;
  double sum = 0.0;
  for (const double v : it->second) sum += v;
  return sum;
}

/// Set-up is sampled at least three times, and for at least a second in
/// all, so that cheap set-ups still get a steady median.
bool enough_setups(const Report& report) {
  const auto it = report.samples.find("setup_s");
  const std::size_t n = it == report.samples.end() ? 0 : it->second.size();
  return report.failed > 0 || n >= 15 ||
         (n >= 3 && total(report, "setup_s") >= 1.0);
}

/// Extra set-up samples: constructs (and discards) engines, each in its
/// own process, until enough_setups().
void pad_setup_samples(Report& report, const ScenarioSpec& spec) {
  while (!enough_setups(report))
    isolated(report, [&](Report& r) {
      HashSink sink;
      const auto start = Clock::now();
      const CampaignEngine engine(spec, sink);
      r.sample("setup_s", since(start));
    });
}

// --- the layer replay ----------------------------------------------

/// One replayed campaign operation: a join with its bootstrap peering
/// targets, or a removal with the phase's heal flag.
struct ReplayOp {
  bool join = false;
  NodeId node = graph::kInvalidNode;
  bool heal = true;
  SimTime at = 0;
  std::vector<NodeId> targets;
};

/// Groups the recorded event stream into replay operations.
std::vector<ReplayOp> compile_ops(const std::vector<CampaignEvent>& events,
                                  const ScenarioSpec& spec) {
  std::vector<ReplayOp> ops;
  for (const CampaignEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::Join:
        ops.push_back({true, static_cast<NodeId>(e.a), true, e.at, {}});
        break;
      case TraceEventKind::Peering:
        if (ops.empty() || !ops.back().join || ops.back().node != e.a)
          throw std::runtime_error("peering event outside its join");
        ops.back().targets.push_back(static_cast<NodeId>(e.b));
        break;
      case TraceEventKind::Leave:
        ops.push_back({false, static_cast<NodeId>(e.a),
                       spec.churn.heal_on_leave, e.at, {}});
        break;
      case TraceEventKind::Takedown: {
        bool heal = true;
        for (const AttackPhase& phase : spec.attacks)
          if (phase.start <= e.at && e.at < phase.stop) heal = phase.heal;
        ops.push_back({false, static_cast<NodeId>(e.a), heal, e.at, {}});
        break;
      }
      default:
        throw std::runtime_error("layer replay: unsupported event kind");
    }
  }
  return ops;
}

/// A graph mutation, as the tracker's observer sees it.
struct Mutation {
  enum Kind : std::uint8_t { AddNode, RemoveNode, AddEdge, RemoveEdge };
  Kind kind;
  NodeId u;
  NodeId v;
};

class MutationLogger final : public graph::MutationObserver {
 public:
  void on_node_added(NodeId u) override {
    log.push_back({Mutation::AddNode, u, 0});
  }
  void on_node_removed(NodeId u) override {
    log.push_back({Mutation::RemoveNode, u, 0});
  }
  void on_edge_added(NodeId u, NodeId v) override {
    log.push_back({Mutation::AddEdge, u, v});
  }
  void on_edge_removed(NodeId u, NodeId v) override {
    log.push_back({Mutation::RemoveEdge, u, v});
  }
  std::vector<Mutation> log;
};

enum class PassMode { Bare, Tracker, Logger };

struct PassResult {
  double join_s = 0.0;
  double remove_s = 0.0;
  double fill_s = 0.0;
  double attach_s = 0.0;
  std::vector<double> join_us;
  std::vector<double> remove_us;
  std::uint64_t requests = 0;
  std::uint64_t accepted = 0;
  std::uint64_t evicted = 0;
  std::uint64_t final_edges = 0;
  std::uint64_t final_epoch = 0;
  std::vector<Mutation> log;
};

/// Drives `ops` through a fresh copy of `initial` (same construction in
/// every pass, same replay RNG seed, so every pass does identical work).
PassResult replay_pass(const graph::Graph& initial, const ScenarioSpec& spec,
                       const std::vector<ReplayOp>& ops, PassMode mode,
                       Report& report) {
  PassResult r;
  Rng rng(spec.seed ^ 0x1a7e5eedULL);
  core::OverlayConfig oc;
  oc.dmin = oc.dmax = spec.degree;
  core::OverlayNetwork net(oc, rng);
  net.reserve(initial.capacity() + ops.size());
  for (std::size_t i = 0; i < initial.capacity(); ++i) net.add_node(true);
  for (NodeId u = 0; u < initial.capacity(); ++u)
    for (const NodeId v : initial.neighbors(u))
      if (u < v) net.graph_mut().add_edge_unchecked(u, v);
  core::DdsrPolicy policy;
  policy.dmin = policy.dmax = spec.degree;
  core::DdsrEngine ddsr(net.graph_mut(), policy, rng);

  std::optional<StructuralTracker> tracker;
  MutationLogger logger;
  if (mode == PassMode::Tracker) {
    const auto start = Clock::now();
    tracker.emplace(net);
    r.attach_s = since(start);
  } else if (mode == PassMode::Logger) {
    net.graph_mut().set_observer(&logger);
  }

  // Snapshot instants: t = 0, every period, and the horizon.
  SimTime next_fill = 0;
  const auto fill_until = [&](SimTime t) {
    while (tracker && next_fill <= spec.horizon && next_fill <= t) {
      MetricsSnapshot s;
      const auto start = Clock::now();
      tracker->fill(s, spec.metrics.degree_histogram);
      r.fill_s += since(start);
      if (next_fill == spec.horizon) {
        next_fill = spec.horizon + 1;
      } else {
        next_fill = std::min(next_fill + spec.metrics.period, spec.horizon);
      }
    }
  };

  std::uint64_t dead_nodes = 0;  // replayed victims or peering targets
  std::uint64_t wrong_ids = 0;
  for (const ReplayOp& op : ops) {
    fill_until(op.at);
    if (op.join) {
      const auto start = Clock::now();
      const NodeId id = net.add_node(true);
      if (id != op.node) ++wrong_ids;
      for (const NodeId target : op.targets) {
        if (!net.alive(target)) {
          ++dead_nodes;
          continue;
        }
        NodeId evicted = graph::kInvalidNode;
        const core::PeerDecision d = net.request_peering(id, target, &evicted);
        ++r.requests;
        if (d == core::PeerDecision::AcceptedWithCapacity ||
            d == core::PeerDecision::AcceptedEvicted)
          ++r.accepted;
        if (evicted != graph::kInvalidNode) {
          ++r.evicted;
          net.refill(evicted);
        }
      }
      if (!op.targets.empty()) net.refill(id);
      const double s = since(start);
      r.join_s += s;
      r.join_us.push_back(s * 1e6);
    } else {
      if (!net.alive(op.node)) {
        ++dead_nodes;
        continue;
      }
      const auto start = Clock::now();
      if (op.heal) {
        ddsr.remove_node(op.node);
      } else {
        ddsr.remove_node_no_repair(op.node);
      }
      const double s = since(start);
      r.remove_s += s;
      r.remove_us.push_back(s * 1e6);
    }
  }
  fill_until(spec.horizon);
  if (dead_nodes > 0)
    report.error("layer replay: " + std::to_string(dead_nodes) +
                 " victims or peering targets were already dead");
  if (wrong_ids > 0)
    report.error("layer replay: " + std::to_string(wrong_ids) +
                 " joins got another node id than traced");
  r.final_edges = net.graph().num_edges();
  r.final_epoch = net.graph().mutation_epoch();
  if (mode == PassMode::Logger) {
    net.graph_mut().set_observer(nullptr);
    r.log = std::move(logger.log);
  }
  return r;
}

struct ConnectivityReplay {
  double insert_edge_s = 0.0;
  double remove_edge_s = 0.0;
  std::uint64_t search_steps = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
};

/// Replays the run-phase mutation log into a standalone
/// DynamicConnectivity loaded with `initial`, timing runs of
/// consecutive same-kind mutations as one span each.
ConnectivityReplay replay_connectivity(const graph::Graph& initial,
                                       const std::vector<Mutation>& log) {
  std::size_t capacity = initial.capacity();
  for (const Mutation& m : log)
    capacity = std::max<std::size_t>(capacity, m.u + std::size_t{1});
  graph::DynamicConnectivity dc(capacity);
  for (NodeId u = 0; u < initial.capacity(); ++u)
    if (initial.alive(u)) dc.insert_vertex(u);
  for (NodeId u = 0; u < initial.capacity(); ++u)
    if (initial.alive(u))
      for (const NodeId v : initial.neighbors(u))
        if (u < v) dc.insert_edge(u, v);
  const std::uint64_t steps0 = dc.search_steps();
  const std::uint64_t splits0 = dc.splits();
  const std::uint64_t merges0 = dc.merges();

  ConnectivityReplay r;
  std::size_t i = 0;
  while (i < log.size()) {
    const Mutation::Kind kind = log[i].kind;
    const auto start = Clock::now();
    for (; i < log.size() && log[i].kind == kind; ++i) {
      const Mutation& m = log[i];
      switch (kind) {
        case Mutation::AddNode: dc.insert_vertex(m.u); break;
        case Mutation::RemoveNode: dc.remove_vertex(m.u); break;
        case Mutation::AddEdge: dc.insert_edge(m.u, m.v); break;
        case Mutation::RemoveEdge: dc.remove_edge(m.u, m.v); break;
      }
    }
    const double s = since(start);
    if (kind == Mutation::AddEdge) r.insert_edge_s += s;
    if (kind == Mutation::RemoveEdge) r.remove_edge_s += s;
  }
  r.search_steps = dc.search_steps() - steps0;
  r.splits = dc.splits() - splits0;
  r.merges = dc.merges() - merges0;
  return r;
}

/// The per-layer breakdown of one recorded campaign (`traced` is the
/// traced repetition that recorded it to `trace_path`).
void campaign_layers(Report& report, const ScenarioSpec& spec,
                     const CampaignResult& traced,
                     const std::string& trace_path) {
  auto& L = report.layers;

  // graph/: the initial topology, drawn exactly as the engine draws it.
  Rng rng(spec.seed);
  (void)rng.split();  // the engine's metrics stream
  auto start = Clock::now();
  const graph::Graph initial =
      graph::random_regular(spec.initial_size, spec.degree, rng);
  L["graph.random_regular_s"] = since(start);

  // scenario/trace_io: one full event pass, then the log itself.
  const trace_io::TraceReader reader(trace_path);
  std::uint64_t streamed = 0;
  start = Clock::now();
  reader.for_each_event([&](const CampaignEvent&) { ++streamed; });
  L["scenario.trace_io.read_s"] = since(start);
  std::vector<CampaignEvent> events;
  events.reserve(streamed);
  reader.for_each_event([&](const CampaignEvent& e) { events.push_back(e); });
  L["scenario.trace_io.write_s"] = traced.write_s;
  L["scenario.trace_io.bytes"] = static_cast<double>(traced.trace_bytes);
  L["scenario.trace_io.chunks"] = static_cast<double>(traced.trace_chunks);

  const std::vector<ReplayOp> ops = compile_ops(events, spec);
  const PassResult bare =
      replay_pass(initial, spec, ops, PassMode::Bare, report);
  const PassResult tracked =
      replay_pass(initial, spec, ops, PassMode::Tracker, report);
  const PassResult logged =
      replay_pass(initial, spec, ops, PassMode::Logger, report);
  if (bare.final_epoch != tracked.final_epoch ||
      bare.final_epoch != logged.final_epoch ||
      bare.final_edges != tracked.final_edges)
    report.error("layer replay passes diverged");
  const ConnectivityReplay dcr = replay_connectivity(initial, logged.log);

  // graph/: connectivity. Times from the standalone replay; counts are
  // the engine's exact run-phase counters, the replay's beside them.
  const EngineCounts& c = traced.counts;
  const double campaign_run_s = traced.run_s - traced.write_in_run_s;
  L["graph.dynconn.remove_edge_s"] = dcr.remove_edge_s;
  L["graph.dynconn.insert_edge_s"] = dcr.insert_edge_s;
  L["graph.dynconn.remove_edge_share"] = dcr.remove_edge_s / campaign_run_s;
  L["graph.dynconn.search_steps"] = static_cast<double>(c.search_steps);
  L["graph.dynconn.splits"] = static_cast<double>(c.splits);
  L["graph.dynconn.merges"] = static_cast<double>(c.merges);
  L["graph.dynconn.removed_edges"] = static_cast<double>(c.removed_edges);
  L["graph.dynconn.steps_per_removed_edge"] =
      c.removed_edges == 0 ? 0.0
                           : static_cast<double>(c.search_steps) /
                                 static_cast<double>(c.removed_edges);
  L["graph.dynconn.replay_search_steps"] =
      static_cast<double>(dcr.search_steps);
  L["graph.dynconn.replay_splits"] = static_cast<double>(dcr.splits);
  L["graph.dynconn.replay_merges"] = static_cast<double>(dcr.merges);

  // core/: DDSR and overlay self time (no observer attached).
  L["core.ddsr.remove_node_s"] = bare.remove_s;
  L["core.ddsr.remove_node_us.p50"] = percentile(bare.remove_us, 0.50);
  L["core.ddsr.remove_node_us.p99"] = percentile(bare.remove_us, 0.99);
  L["core.ddsr.repair_edges"] = static_cast<double>(c.ddsr.repair_edges_added);
  L["core.ddsr.prune_edges"] = static_cast<double>(c.ddsr.prune_edges_removed);
  L["core.ddsr.refill_edges"] = static_cast<double>(c.ddsr.refill_edges_added);
  L["core.ddsr.heal_denied"] =
      static_cast<double>(c.ddsr.heal_requests_denied);
  L["core.overlay.join_s"] = bare.join_s;
  L["core.overlay.join_us.p50"] = percentile(bare.join_us, 0.50);
  L["core.overlay.join_us.p99"] = percentile(bare.join_us, 0.99);
  L["core.overlay.peering_evicted"] = static_cast<double>(bare.evicted);
  L["core.overlay.peering_accept_ratio"] =
      bare.requests == 0 ? 0.0
                         : static_cast<double>(bare.accepted) /
                               static_cast<double>(bare.requests);

  // scenario/: the tracker's observer cost is the with-minus-without
  // difference of two otherwise identical passes.
  const double observer_s =
      (tracked.join_s + tracked.remove_s) - (bare.join_s + bare.remove_s);
  L["scenario.tracker.attach_s"] = tracked.attach_s;
  L["scenario.tracker.observer_s"] = observer_s;
  L["scenario.tracker.fill_s"] = tracked.fill_s;
  L["scenario.sink.snapshot_s"] = traced.hash_sink_s;
  L["scenario.engine.unattributed_s"] =
      campaign_run_s - (bare.remove_s + bare.join_s + observer_s +
                        tracked.fill_s + traced.hash_sink_s);
}

/// Streams one replay cell (seed 1) of the recorded trace through a
/// timed FlowScorer: emitter self time, scorer time, flows.
void detection_layers(Report& report, const std::string& trace_path) {
  const trace_io::TraceReader reader(trace_path);
  const ReplayGridConfig gc = grid_config();
  FlowScorerConfig scorer_config;
  for (const double size_cv : gc.flow_size_cv)
    for (const double gap_cv : gc.flow_gap_cv) {
      FlowDetectorConfig c;
      c.min_flows = gc.flow_min_flows;
      c.size_cv_threshold = size_cv;
      c.gap_cv_threshold = gap_cv;
      scorer_config.beacon_thresholds.push_back(c);
    }
  scorer_config.tor_min_flows = gc.tor_min_flows;
  ReplayConfig rc = gc.replay;
  rc.seed = gc.replay_seeds.front();
  FlowScorer scorer(scorer_config);
  TimedFlowSink timed(scorer);
  const auto start = Clock::now();
  const StreamPopulations pops = replay_trace_streaming(reader, rc, timed);
  const double total = since(start);
  const auto finish = Clock::now();
  scorer.finish();
  const double finish_s = since(finish);
  report.layers["detection.replay.emit_s"] = total - timed.seconds;
  report.layers["detection.scorer.score_s"] = timed.seconds + finish_s;
  report.layers["detection.replay.flows"] = static_cast<double>(pops.flows);
}

// --- workloads ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

double events_per_s(const CampaignResult& r) {
  return static_cast<double>(r.counts.events) / r.run_s;
}

/// Counts the completed cells' streamed flows (each cell's points all
/// carry that cell's flow count).
std::uint64_t grid_flows(const ReplayGridReport& grid, std::size_t per_cell) {
  std::uint64_t flows = 0;
  for (std::size_t i = 0; i < grid.points.size(); i += per_cell)
    flows += grid.points[i].flows;
  return flows;
}

struct GridRun {
  double grid_s = 0.0;  // coordinator start to merged report
  ProcessOutcome outcome;
  ReplayGridReport merged;
};

/// One replay grid over `reader` through ReplayGridJob +
/// ProcessCellCoordinator, frames under `results_dir` (removed after).
GridRun run_grid(const ReplayGrid& grid, const trace_io::TraceReader& reader,
                 const std::string& results_dir) {
  GridRun run;
  const std::vector<const TraceSource*> campaigns{&reader};
  const auto start = Clock::now();
  ReplayGridJob job(grid, campaigns);
  GridCoordinatorConfig config;
  config.results_dir = results_dir;
  config.workers = worker_count();
  ProcessCellCoordinator coordinator(job, config);
  run.outcome = coordinator.run();
  run.merged = job.take_report();
  run.grid_s = since(start);
  fs::remove_all(results_dir);
  return run;
}

/// Coordinator cost: grid_s minus the in-process ReplayGrid::run_cell
/// time per worker actually used.
void coordinator_layers(Report& report, const ReplayGrid& grid,
                        const trace_io::TraceReader& reader,
                        const GridRun& run) {
  const std::size_t cells = grid.cell_count(1);
  double cell_s = 0.0;
  for (std::uint64_t i = 0; i < cells; ++i) {
    const auto start = Clock::now();
    (void)grid.run_cell(reader, i);
    cell_s += since(start);
  }
  const std::size_t parallel = std::min(worker_count(), cells);
  report.layers["scenario.coordinator.overhead_s"] =
      run.grid_s - cell_s / static_cast<double>(parallel);
  report.layers["scenario.coordinator.retries"] =
      static_cast<double>(run.outcome.retries);
  report.layers["scenario.coordinator.quarantined"] =
      static_cast<double>(run.outcome.failed_cells.size());
}

struct RocRun {
  double replay_s = 0.0;
  double roc_s = 0.0;
  std::uint64_t flows = 0;
  RocReport report;
};

/// Batch replay_trace (a materialised TrafficTrace), then the
/// family-resolved RocSweep at worker_count() threads.
RocRun run_roc(const TraceSource& trace, const ReplayConfig& rc) {
  RocRun run;
  RocConfig config;
  config.threads = worker_count();
  const RocSweep sweep(config);
  auto start = Clock::now();
  const ReplayResult batch = replay_trace(trace, rc);
  run.replay_s = since(start);
  start = Clock::now();
  run.report = sweep.run(batch.trace, replay_ground_truth(batch));
  run.roc_s = since(start);
  run.flows = batch.trace.flows.size();
  return run;
}

/// Probes the detection layers a workload's own timed phase does not
/// run, on its recorded trace: a two-seed coordinator grid and a batch
/// replay + sweep, both over at most 10k of the campaign's bots so the
/// probe stays small on the 500k trace.
void probe_layers(Report& report, const Options& opt,
                  const std::string& trace_path, bool grid, bool roc) {
  const trace_io::TraceReader reader(trace_path);
  ReplayConfig rc = replay_populations();
  rc.max_onion_bots = 10'000;
  if (grid) {
    ReplayGridConfig config = grid_config();
    config.replay_seeds = {1, 2};
    config.replay = rc;
    const ReplayGrid probe(config);
    const GridRun run = run_grid(probe, reader, opt.work_dir + "/probe_cells");
    coordinator_layers(report, probe, reader, run);
  }
  if (roc) {
    const RocRun run = run_roc(reader, rc);
    report.layers["detection.replay.batch_s"] = run.replay_s;
    report.layers["detection.roc.sweep_s"] = run.roc_s;
  }
}

/// W1 and W2: campaign-only workloads; the timed phase is engine.run().
void campaign_workload(const Options& opt, const ScenarioSpec& spec,
                       Report& report) {
  if (opt.trace) {
    const std::string trace_path = opt.work_dir + "/campaign.otrace";
    const auto r = campaign_operation(report, spec, &trace_path, true, "");
    if (!r) return;
    report.sample("setup_s", r->setup_s);
    report.sample("run_s", r->run_s);
    report.sample("events_per_s", events_per_s(*r));
    campaign_layers(report, spec, *r, trace_path);
    detection_layers(report, trace_path);
    probe_layers(report, opt, trace_path, true, true);
    fs::remove(trace_path);
    return;
  }
  do {
    isolated(report, [&](Report& rep) {
      const auto r = campaign_operation(rep, spec, nullptr, false, "");
      if (!r) return;
      rep.sample("setup_s", r->setup_s);
      rep.sample("run_s", r->run_s);
      rep.sample("events_per_s", events_per_s(*r));
    });
  } while (report.failed == 0 && total(report, "run_s") < opt.seconds);
  pad_setup_samples(report, spec);
}

/// One W3 repetition: record the campaign to `trace_path`, then run the
/// replay grid over it in forked workers. With `traced`, also the
/// per-layer breakdown.
void pipeline_repetition(const Options& opt, const ScenarioSpec& spec,
                         const ReplayGrid& grid, const std::string& tag,
                         bool check_inprocess, Report& report) {
  const std::size_t cells = grid.cell_count(1);
  const std::string trace_path = opt.work_dir + "/w3_" + tag + ".otrace";
  const auto r =
      campaign_operation(report, spec, &trace_path, opt.trace, "campaign.");
  if (!r) return;
  const double record_s = r->run_s + r->finish_s;

  const trace_io::TraceReader reader(trace_path);
  const GridRun run =
      run_grid(grid, reader, opt.work_dir + "/w3_cells_" + tag);
  const std::uint64_t flows = grid_flows(run.merged, grid.points_per_cell());
  bool ok = report.check_exact("grid.fingerprint", run.merged.fingerprint);
  ok &= report.check_exact("grid.flows", flows);
  // Every seed: the process-level merge must reproduce in-process
  // ReplayGrid::run on the same trace. Later repetitions must repeat the
  // first one's digest exactly, so checking the first is enough.
  if (check_inprocess) {
    const std::string inproc = grid.run(reader).fingerprint;
    if (run.merged.fingerprint != inproc) {
      report.error("merged grid digest " + run.merged.fingerprint +
                   " != in-process ReplayGrid::run " + inproc);
      ok = false;
    }
  }
  const std::size_t quarantined = run.outcome.failed_cells.size();
  for (const FailedCell& f : run.outcome.failed_cells)
    report.error("quarantined cell " + std::to_string(f.cell_index) + ": " +
                 f.error);
  report.operation(ok, cells - quarantined);
  report.operation(false, quarantined);

  report.sample("setup_s", r->setup_s);
  report.sample("record_s", record_s);
  report.sample("grid_s", run.grid_s);
  report.sample("run_s", record_s + run.grid_s);
  report.sample("events_per_s", events_per_s(*r));
  report.sample("flows_per_s", static_cast<double>(flows) / run.grid_s);

  if (opt.trace) {
    campaign_layers(report, spec, *r, trace_path);
    detection_layers(report, trace_path);
    coordinator_layers(report, grid, reader, run);
    probe_layers(report, opt, trace_path, false, true);
  }
  fs::remove(trace_path);
}

/// W3: record a 50k campaign to disk, then an 8-seed replay grid over
/// the trace in forked workers. Timed phase = record + grid.
void pipeline_workload(const Options& opt, Report& report) {
  const ScenarioSpec spec = pinned_campaign(opt.seed, 50'000);
  const ReplayGrid grid(grid_config());
  if (opt.trace) {
    pipeline_repetition(opt, spec, grid, "traced", true, report);
    return;
  }
  std::size_t rep = 0;
  do {
    const std::string tag = std::to_string(rep);
    isolated(report, [&](Report& r) {
      pipeline_repetition(opt, spec, grid, tag, rep == 0, r);
    });
    ++rep;
  } while (report.failed == 0 && total(report, "run_s") < opt.seconds);
  pad_setup_samples(report, spec);
}

/// One W4 repetition: batch replay of the recorded trace, then the
/// family-resolved sweep.
void roc_repetition(const std::string& trace_path, Report& report) {
  const trace_io::TraceReader reader(trace_path);
  const RocRun run = run_roc(reader, replay_populations());
  bool ok = report.check_exact("roc.fingerprint", run.report.fingerprint);
  ok &= report.check_exact("replay.flows", run.flows);
  ok &= report.check_exact("roc.points", run.report.points.size());
  report.operation(ok);
  report.sample("replay_s", run.replay_s);
  report.sample("roc_s", run.roc_s);
  report.sample("run_s", run.replay_s + run.roc_s);
  report.layers["detection.replay.batch_s"] = run.replay_s;
  report.layers["detection.roc.sweep_s"] = run.roc_s;
}

/// One W4 set-up: record the campaign to `trace_path`.
std::optional<CampaignResult> roc_setup(const ScenarioSpec& spec,
                                        const std::string& trace_path,
                                        bool traced, Report& report) {
  auto r = campaign_operation(report, spec, &trace_path, traced, "campaign.");
  if (r) {
    report.sample("setup_s", r->setup_s + r->run_s + r->finish_s);
    report.sample("events_per_s", events_per_s(*r));
  }
  return r;
}

/// W4: set-up records the pinned 10k campaign; the timed phase is the
/// batch replay plus a family-resolved ROC sweep.
void roc_workload(const Options& opt, Report& report) {
  const ScenarioSpec spec = pinned_campaign(opt.seed, 10'000);
  const std::string trace_path = opt.work_dir + "/w4.otrace";
  if (opt.trace) {
    const auto r = roc_setup(spec, trace_path, true, report);
    if (!r) return;
    roc_repetition(trace_path, report);
    campaign_layers(report, spec, *r, trace_path);
    detection_layers(report, trace_path);
    probe_layers(report, opt, trace_path, true, false);
    fs::remove(trace_path);
    return;
  }
  while (!enough_setups(report))
    isolated(report, [&](Report& r) { roc_setup(spec, trace_path, false, r); });
  while (report.failed == 0 && total(report, "run_s") < opt.seconds)
    isolated(report, [&](Report& r) { roc_repetition(trace_path, r); });
  fs::remove(trace_path);
}

// --- output ----------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_numbers(const std::map<std::string, double>& values) {
  std::string out = "{";
  char buf[64];
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += json_string(key) + ": " + buf;
  }
  return out + "}";
}

std::string json_samples(
    const std::map<std::string, std::vector<double>>& samples) {
  std::string out = "{";
  char buf[64];
  for (const auto& [key, values] : samples) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i > 0 ? ", " : "",
                    values[i]);
      out += buf;
    }
    out += "]";
  }
  return out + "}";
}

std::string json_strings(const std::map<std::string, std::string>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + json_string(value);
  }
  return out + "}";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--expect key=value]...\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Report report;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value, nullptr, 0);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--expect") {
        const auto eq = value.find('=');
        if (eq == std::string::npos) usage("--expect wants key=value");
        report.expect[value.substr(0, eq)] = value.substr(eq + 1);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed || opt.work_dir.empty())
    usage("--seed and --work-dir are required");
  fs::create_directories(opt.work_dir);

  const auto start = Clock::now();
  try {
    if (opt.workload == "campaign_500k_leave_heavy") {
      campaign_workload(opt, leave_heavy_500k(opt.seed), report);
    } else if (opt.workload == "campaign_50k_join_heavy") {
      campaign_workload(opt, join_heavy_50k(opt.seed), report);
    } else if (opt.workload == "pipeline_50k_replay_grid") {
      pipeline_workload(opt, report);
    } else if (opt.workload == "roc_sweep_10k_batch") {
      roc_workload(opt, report);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    report.error(std::string("workload threw: ") + e.what());
    report.operation(false);
  }
  std::map<std::string, double> values;
  for (const auto& [key, v] : report.samples) values[key] = median(v);
  values["peak_rss_mb"] = peak_rss_mb();
  values["wall_s"] = since(start);

  std::string errors = "[";
  for (const std::string& e : report.errors)
    errors += (errors.size() > 1 ? ", " : "") + json_string(e);
  errors += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, "
      "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", "
      "\"errors\": %s, \"values\": %s, \"samples\": %s, \"layers\": %s, "
      "\"exact\": %s}\n",
      json_string(opt.workload).c_str(), opt.seed, opt.trace ? 1 : 0,
      report.attempted, report.failed, errors.c_str(),
      json_numbers(values).c_str(), json_samples(report.samples).c_str(),
      json_numbers(report.layers).c_str(), json_strings(report.exact).c_str());
  return 0;
}
