// FlowScorer lockstep tests: the flat-buffer scorer and a verbatim copy
// of the map-based scorer it replaced (one std::map<(src,dst), Series>
// entry per channel, a growing size and time vector per channel) are
// fed the same calls, and flagged() and flows_scored() must be equal.
//
// Inputs: streamed replays over several seeds, the batch replay fed
// grouped and raw (ungrouped, finalized only by finish()), an early
// on_host_done while other hosts' flows are still open, and hand-built
// edge cases (single-flow channels, duplicate timestamps, the min_flows
// boundary, a host done with no flows, an empty relay list).
//
// Thresholds sit exactly on every observed size CV, gap CV, channel
// flow count and per-host Tor flow count, and one step above each, so
// any change to a channel's grouping, order or arithmetic flips a
// verdict. The batch one-threshold forms (detect_beacons,
// detect_tor_users) are checked against verbatim copies of the batch
// detectors they replaced too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <variant>
#include <vector>

#include "common/check.hpp"
#include "detection/flow_detector.hpp"
#include "detection/replay.hpp"
#include "detection/replay_grid.hpp"
#include "detection/roc.hpp"
#include "detection/tor_flagger.hpp"
#include "scenario/engine.hpp"

namespace onion::detection {
namespace {

// ====================================================================
// The reference: the map-based scorer and batch detectors, verbatim
// (classes and functions renamed, comments trimmed).
// ====================================================================

class MapFlowScorer final : public FlowSink {
 public:
  explicit MapFlowScorer(FlowScorerConfig config);

  void on_relays(const std::vector<HostId>& relays) override;
  void on_flow(const FlowRecord& f) override;
  void on_host_done(HostId host) override;
  void finish();

  std::uint64_t flows_scored() const { return flows_; }
  const std::vector<std::vector<HostId>>& flagged() const;

 private:
  struct Series {
    std::vector<double> sizes;
    std::vector<double> times;
  };
  void finalize_host(HostId host);

  FlowScorerConfig config_;
  std::set<HostId> relays_;
  std::map<std::pair<HostId, HostId>, Series> channels_;
  std::uint64_t flows_ = 0;
  bool finished_ = false;
  std::vector<std::vector<HostId>> flagged_;
};

MapFlowScorer::MapFlowScorer(FlowScorerConfig config)
    : config_(std::move(config)),
      flagged_(config_.beacon_thresholds.size() +
               config_.tor_min_flows.size()) {}

void MapFlowScorer::on_relays(const std::vector<HostId>& relays) {
  relays_ = std::set<HostId>(relays.begin(), relays.end());
}

void MapFlowScorer::on_flow(const FlowRecord& f) {
  ONION_EXPECTS(!finished_);
  Series& s = channels_[{f.src, f.dst}];
  s.sizes.push_back(static_cast<double>(f.bytes));
  s.times.push_back(static_cast<double>(f.at));
  ++flows_;
}

void MapFlowScorer::on_host_done(HostId host) { finalize_host(host); }

void MapFlowScorer::finalize_host(HostId host) {
  std::size_t tor_flows = 0;
  auto it = channels_.lower_bound({host, 0});
  while (it != channels_.end() && it->first.first == host) {
    Series& s = it->second;
    const std::size_t count = s.sizes.size();
    const double size_cv = coefficient_of_variation(s.sizes);
    std::sort(s.times.begin(), s.times.end());
    std::vector<double> gaps;
    gaps.reserve(count > 0 ? count - 1 : 0);
    for (std::size_t i = 1; i < s.times.size(); ++i)
      gaps.push_back(s.times[i] - s.times[i - 1]);
    const double gap_cv = coefficient_of_variation(gaps);
    for (std::size_t k = 0; k < config_.beacon_thresholds.size(); ++k) {
      const FlowDetectorConfig& c = config_.beacon_thresholds[k];
      if (count >= c.min_flows && size_cv < c.size_cv_threshold &&
          gap_cv < c.gap_cv_threshold)
        flagged_[k].push_back(host);
    }
    if (relays_.count(it->first.second) > 0) tor_flows += count;
    it = channels_.erase(it);
  }
  const std::size_t beacons = config_.beacon_thresholds.size();
  for (std::size_t k = 0; k < config_.tor_min_flows.size(); ++k)
    if (tor_flows >= config_.tor_min_flows[k] && tor_flows > 0)
      flagged_[beacons + k].push_back(host);
}

void MapFlowScorer::finish() {
  ONION_EXPECTS(!finished_);
  while (!channels_.empty())
    finalize_host(channels_.begin()->first.first);
  for (std::vector<HostId>& hosts : flagged_) {
    std::sort(hosts.begin(), hosts.end());
    hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  }
  finished_ = true;
}

const std::vector<std::vector<HostId>>& MapFlowScorer::flagged() const {
  ONION_EXPECTS(finished_);
  return flagged_;
}

std::vector<ChannelFeatures> map_channel_features(const TrafficTrace& trace,
                                                  std::size_t min_flows) {
  struct Series {
    std::vector<double> sizes;
    std::vector<double> times;
  };
  std::map<std::pair<HostId, HostId>, Series> channels;
  for (const FlowRecord& f : trace.flows) {
    Series& s = channels[{f.src, f.dst}];
    s.sizes.push_back(static_cast<double>(f.bytes));
    s.times.push_back(static_cast<double>(f.at));
  }

  std::vector<ChannelFeatures> out;
  for (auto& [key, s] : channels) {
    if (s.sizes.size() < min_flows) continue;
    std::sort(s.times.begin(), s.times.end());
    std::vector<double> gaps;
    gaps.reserve(s.times.size() - 1);
    for (std::size_t i = 1; i < s.times.size(); ++i)
      gaps.push_back(s.times[i] - s.times[i - 1]);

    ChannelFeatures f;
    f.src = key.first;
    f.dst = key.second;
    f.flows = s.sizes.size();
    f.size_cv = coefficient_of_variation(s.sizes);
    f.gap_cv = coefficient_of_variation(gaps);
    out.push_back(f);
  }
  return out;
}

DetectionResult map_detect_beacons(const TrafficTrace& trace,
                                   const FlowDetectorConfig& config) {
  DetectionResult result;
  std::set<HostId> flagged;
  for (const ChannelFeatures& f :
       map_channel_features(trace, config.min_flows)) {
    if (f.size_cv < config.size_cv_threshold &&
        f.gap_cv < config.gap_cv_threshold)
      flagged.insert(f.src);
  }
  result.flagged.assign(flagged.begin(), flagged.end());
  return result;
}

DetectionResult map_detect_tor_users(const TrafficTrace& trace,
                                     std::size_t min_flows) {
  const std::set<HostId> relays(trace.known_tor_relays.begin(),
                                trace.known_tor_relays.end());
  std::map<HostId, std::size_t> tor_flows;
  for (const FlowRecord& f : trace.flows)
    if (relays.count(f.dst) > 0) ++tor_flows[f.src];

  DetectionResult result;
  for (const auto& [host, count] : tor_flows)
    if (count >= min_flows) result.flagged.push_back(host);
  return result;
}

// ====================================================================
// Harness
// ====================================================================

/// A captured call sequence, replayable into any sink.
struct Recording final : FlowSink {
  std::vector<HostId> relays;
  std::vector<std::variant<FlowRecord, HostId>> calls;  // flow | host done
  TrafficTrace trace;  // the flows and relays, for the thresholds

  void on_relays(const std::vector<HostId>& r) override {
    relays = r;
    trace.known_tor_relays = r;
  }
  void on_flow(const FlowRecord& f) override {
    calls.emplace_back(f);
    trace.flows.push_back(f);
  }
  void on_host_done(HostId host) override { calls.emplace_back(host); }

  void play(FlowSink& sink) const {
    sink.on_relays(relays);
    for (const auto& call : calls) {
      if (const FlowRecord* f = std::get_if<FlowRecord>(&call))
        sink.on_flow(*f);
      else
        sink.on_host_done(std::get<HostId>(call));
    }
  }
};

/// Feeds both scorers every call.
class Tee final : public FlowSink {
 public:
  Tee(FlowSink& a, FlowSink& b) : a_(a), b_(b) {}
  void on_relays(const std::vector<HostId>& relays) override {
    a_.on_relays(relays);
    b_.on_relays(relays);
  }
  void on_flow(const FlowRecord& f) override {
    a_.on_flow(f);
    b_.on_flow(f);
  }
  void on_host_done(HostId host) override {
    a_.on_host_done(host);
    b_.on_host_done(host);
  }

 private:
  FlowSink& a_;
  FlowSink& b_;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

double above(double v) { return std::nextafter(v, kInf); }

/// Every threshold edge the capture has, plus the default RocSweep flow
/// grid. For each channel of two or more flows (features by the
/// reference arithmetic): its flow count with its size CV and gap CV as
/// the thresholds, and one step above either. A threshold at the
/// channel's own flow count and CVs keeps most of the host's other
/// channels (single-flow browsing channels have CV 0) from masking a
/// change to it. Then each observed flow count and each host's Tor flow
/// count, and one above.
FlowScorerConfig edge_thresholds(const TrafficTrace& trace) {
  std::set<std::tuple<std::size_t, double, double>> beacons;
  for (const ChannelFeatures& f : map_channel_features(trace, 2)) {
    beacons.insert({f.flows, f.size_cv, above(f.gap_cv)});
    beacons.insert({f.flows, above(f.size_cv), f.gap_cv});
    beacons.insert({f.flows, above(f.size_cv), above(f.gap_cv)});
    beacons.insert({f.flows, kInf, kInf});
    beacons.insert({f.flows + 1, kInf, kInf});
  }
  const std::set<HostId> relays(trace.known_tor_relays.begin(),
                                trace.known_tor_relays.end());
  std::map<HostId, std::size_t> tor_flows;
  for (const FlowRecord& f : trace.flows)
    if (relays.count(f.dst) > 0) ++tor_flows[f.src];

  const RocConfig defaults;
  FlowScorerConfig config =
      FlowGrid(defaults.flow_size_cv, defaults.flow_gap_cv,
               FlowDetectorConfig{}.min_flows, defaults.tor_min_flows)
          .thresholds;
  config.beacon_thresholds.push_back({1, kInf, kInf});
  for (const auto& [flows, size_cv, gap_cv] : beacons)
    config.beacon_thresholds.push_back({flows, size_cv, gap_cv});
  config.tor_min_flows.push_back(0);
  for (const auto& [host, n] : tor_flows) {
    config.tor_min_flows.push_back(n);
    config.tor_min_flows.push_back(n + 1);
  }
  return config;
}

void expect_lockstep(const FlowScorer& scorer, const MapFlowScorer& ref) {
  EXPECT_EQ(scorer.flows_scored(), ref.flows_scored());
  ASSERT_EQ(scorer.flagged().size(), ref.flagged().size());
  std::size_t diverged = 0;
  for (std::size_t k = 0; k < ref.flagged().size(); ++k) {
    if (scorer.flagged()[k] == ref.flagged()[k]) continue;
    if (diverged++ == 0)
      ADD_FAILURE() << "threshold " << k << " diverged (first of several?)";
  }
  EXPECT_EQ(diverged, 0u) << "of " << ref.flagged().size() << " thresholds";
}

/// Plays `calls` into both scorers (finish() included) and compares.
void run_lockstep(const Recording& calls, const FlowScorerConfig& config) {
  FlowScorer scorer(config);
  MapFlowScorer ref(config);
  Tee tee(scorer, ref);
  calls.play(tee);
  scorer.finish();
  ref.finish();
  expect_lockstep(scorer, ref);
}

scenario::ScenarioSpec busy_spec(std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 150;
  spec.degree = 6;
  spec.horizon = 2 * kHour;
  spec.churn.joins_per_hour = 40.0;
  spec.churn.leaves_per_hour = 40.0;
  spec.metrics.period = 10 * kMinute;
  return spec;
}

scenario::CampaignTrace record(const scenario::ScenarioSpec& spec) {
  scenario::CampaignTrace campaign;
  scenario::CampaignEngine(spec, campaign, &campaign).run();
  return campaign;
}

ReplayConfig small_replay(std::uint64_t seed) {
  ReplayConfig rc;
  rc.seed = seed;
  rc.benign_web = 40;
  rc.benign_tor = 15;
  rc.centralized_bots = 8;
  rc.dga_bots = 8;
  rc.fastflux_bots = 8;
  rc.p2p_bots = 10;
  rc.onion_mean_gap = kMinute;
  return rc;
}

FlowRecord flow(HostId src, HostId dst, std::size_t bytes, SimTime at) {
  FlowRecord f;
  f.src = src;
  f.dst = dst;
  f.bytes = bytes;
  f.at = at;
  return f;
}

// ====================================================================
// Replays
// ====================================================================

TEST(FlowScorerLockstep, StreamedReplaysAcrossSeeds) {
  const scenario::CampaignTrace campaign = record(busy_spec(71));
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << "replay seed " << seed);
    Recording calls;
    replay_trace_streaming(campaign, small_replay(seed), calls);
    ASSERT_GT(calls.trace.flows.size(), 1000u);
    run_lockstep(calls, edge_thresholds(calls.trace));
  }
}

TEST(FlowScorerLockstep, BatchReplayFedGroupedAndRaw) {
  const scenario::CampaignTrace campaign = record(busy_spec(72));
  for (const std::uint64_t seed : {5, 6}) {
    SCOPED_TRACE(::testing::Message() << "replay seed " << seed);
    const TrafficTrace trace = replay_trace(campaign, small_replay(seed)).trace;
    const FlowScorerConfig config = edge_thresholds(trace);

    Recording grouped;
    EXPECT_EQ(feed_trace(trace, grouped), trace.flows.size());
    run_lockstep(grouped, config);

    // Raw: trace (global event) order, no on_host_done at all, so every
    // host is finalized by finish().
    Recording raw;
    raw.on_relays(trace.known_tor_relays);
    for (const FlowRecord& f : trace.flows) raw.on_flow(f);
    run_lockstep(raw, config);

    // The one-threshold batch forms against the detectors they replaced,
    // at every 16th threshold (each call is a whole pass).
    for (std::size_t k = 0; k < config.beacon_thresholds.size(); k += 16)
      EXPECT_EQ(detect_beacons(trace, config.beacon_thresholds[k]).flagged,
                map_detect_beacons(trace, config.beacon_thresholds[k]).flagged);
    for (std::size_t k = 0; k < config.tor_min_flows.size(); k += 16)
      EXPECT_EQ(detect_tor_users(trace, config.tor_min_flows[k]).flagged,
                map_detect_tor_users(trace, config.tor_min_flows[k]).flagged);
  }
}

// ====================================================================
// Hand-built streams
// ====================================================================

TEST(FlowScorerLockstep, EarlyHostDoneFinalizesOnlyThatHost) {
  // Hosts 1 and 2 interleave six regular flows each to relay 100; host 1
  // is done early; host 2 then sends six more, as does host 3, which is
  // never marked done. Host 2's channel holds twelve flows, and only a
  // scorer that keeps it open across on_host_done(1) sees all twelve.
  Recording calls;
  calls.on_relays({100});
  for (SimTime i = 0; i < 6; ++i) {
    calls.on_flow(flow(1, 100, 512, i * kMinute));
    calls.on_flow(flow(2, 100, 512, i * kMinute + kSecond));
  }
  calls.on_host_done(1);
  for (SimTime i = 6; i < 12; ++i) {
    calls.on_flow(flow(2, 100, 512, i * kMinute + kSecond));
    calls.on_flow(flow(3, 100, 1024, i * kMinute));
  }
  calls.on_host_done(2);

  FlowScorerConfig config;
  config.beacon_thresholds = {{12, kInf, kInf}, {6, kInf, kInf}};
  config.tor_min_flows = {12, 6};
  run_lockstep(calls, config);

  FlowScorer scorer(config);
  calls.play(scorer);
  scorer.finish();
  const std::vector<std::vector<HostId>> expected = {
      {2}, {1, 2, 3}, {2}, {1, 2, 3}};
  EXPECT_EQ(scorer.flagged(), expected);
}

TEST(FlowScorerLockstep, EdgeCasesMatchTheMapScorer) {
  Recording calls;
  calls.on_relays({});  // no relays: no Tor flows at all
  // Single-flow channels: both CVs are 0.
  calls.on_flow(flow(1, 10, 700, 0));
  calls.on_flow(flow(1, 11, 900, kMinute));
  calls.on_host_done(1);
  // Duplicate timestamps: two interleaved channels of 30 flows, three
  // per minute, so two gaps in three are zero; the sizes cycle.
  for (int i = 0; i < 30; ++i) {
    calls.on_flow(flow(2, 20, 100 + 37 * static_cast<std::size_t>(i % 7),
                       (i / 3) * kMinute));
    calls.on_flow(flow(2, 21, 513 + 1000 * static_cast<std::size_t>(i % 3),
                       (i / 3) * kMinute));
  }
  calls.on_host_done(2);
  // A host done with no flows, twice.
  calls.on_host_done(3);
  calls.on_host_done(3);
  // The min_flows boundary: exactly 12 and 11 flows.
  for (SimTime i = 0; i < 12; ++i) calls.on_flow(flow(4, 40, 600, i * kMinute));
  for (SimTime i = 0; i < 11; ++i) calls.on_flow(flow(4, 41, 600, i * kMinute));
  calls.on_host_done(4);
  // An open host left for finish().
  for (SimTime i = 0; i < 5; ++i) calls.on_flow(flow(5, 50, 64 * i, i));

  FlowScorerConfig config = edge_thresholds(calls.trace);
  config.beacon_thresholds.push_back({11, 0.25, 0.45});
  config.beacon_thresholds.push_back({12, 0.25, 0.45});
  config.beacon_thresholds.push_back({13, 0.25, 0.45});
  run_lockstep(calls, config);

  FlowScorer scorer(config);
  calls.play(scorer);
  scorer.finish();
  const std::size_t n = config.beacon_thresholds.size();
  EXPECT_EQ(scorer.flagged()[n - 3], (std::vector<HostId>{4}));
  EXPECT_EQ(scorer.flagged()[n - 2], (std::vector<HostId>{4}));
  EXPECT_TRUE(scorer.flagged()[n - 1].empty());
  for (std::size_t k = n; k < scorer.flagged().size(); ++k)
    EXPECT_TRUE(scorer.flagged()[k].empty()) << "no relays, no Tor users";
  EXPECT_EQ(scorer.flows_scored(), 2u + 60u + 23u + 5u);
}

TEST(FlowScorerLockstep, AnEmptyStreamFlagsNothing) {
  FlowScorerConfig config;
  config.beacon_thresholds = {{0, kInf, kInf}};
  config.tor_min_flows = {0};
  FlowScorer scorer(config);
  scorer.on_host_done(7);
  scorer.finish();
  EXPECT_EQ(scorer.flows_scored(), 0u);
  EXPECT_EQ(scorer.flagged(), (std::vector<std::vector<HostId>>(2)));
}

}  // namespace
}  // namespace onion::detection
