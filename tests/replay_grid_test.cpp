// Replay-grid tests: the streaming FlowScorer's verdicts — and the
// RocSweep flow points built from them — are *equal* (set equality, not
// approximation) to the batch flow-beacon and tor-flagger detectors fed
// the same capture; the shared scorer counts a hand-built verdict
// correctly; the streamed replay is
// deterministic and O(window)-shaped (population tables match the batch
// replay's exactly); the grid fingerprint is thread-count invariant;
// and the family-resolved RocSweep keeps the legacy aggregate encoding
// byte-identical while adding correct per-population columns. For the
// batch families, every dga, flux and p2p point of the sweep (one
// feature pass per family) equals one direct detect_X call per
// threshold, at thresholds placed exactly on observed feature values,
// and the rewritten fast-flux and mesh feature passes equal verbatim
// copies of their previous form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "detection/dga_detector.hpp"
#include "detection/fastflux_detector.hpp"
#include "detection/flow_detector.hpp"
#include "detection/p2p_detector.hpp"
#include "detection/replay.hpp"
#include "detection/replay_grid.hpp"
#include "detection/roc.hpp"
#include "detection/telemetry.hpp"
#include "detection/tor_flagger.hpp"
#include "scenario/engine.hpp"

namespace onion::detection {
namespace {

using scenario::CampaignEngine;
using scenario::CampaignTrace;
using scenario::ScenarioSpec;

ScenarioSpec busy_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 150;
  spec.degree = 6;
  spec.horizon = 2 * kHour;
  spec.churn.joins_per_hour = 40.0;
  spec.churn.leaves_per_hour = 40.0;
  scenario::AttackPhase takedown;
  takedown.kind = scenario::AttackKind::RandomTakedown;
  takedown.start = 15 * kMinute;
  takedown.stop = kHour;
  takedown.takedowns_per_hour = 40.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = 10 * kMinute;
  return spec;
}

CampaignTrace record(const ScenarioSpec& spec) {
  CampaignTrace campaign;
  CampaignEngine(spec, campaign, &campaign).run();
  return campaign;
}

ReplayConfig small_replay(std::uint64_t seed) {
  ReplayConfig rc;
  rc.seed = seed;
  rc.benign_web = 60;
  rc.benign_tor = 15;
  rc.centralized_bots = 10;
  rc.dga_bots = 10;
  rc.fastflux_bots = 10;
  rc.p2p_bots = 12;
  rc.onion_mean_gap = kMinute;
  return rc;
}

/// The canonical %g rendering RocSweep's params tuples use.
std::string g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// ====================================================================
// FlowScorer == batch detectors
// ====================================================================

TEST(FlowScorer, MatchesBatchDetectorsOnTheSameCapture) {
  const CampaignTrace campaign = record(busy_spec(51));
  const ReplayResult replay = replay_trace(campaign, small_replay(0x5ca1e));

  FlowScorerConfig config;
  for (const double size_cv : {0.1, 0.25, 0.5, 0.75})
    for (const double gap_cv : {0.2, 0.45, 0.7, 1.0}) {
      FlowDetectorConfig c;
      c.size_cv_threshold = size_cv;
      c.gap_cv_threshold = gap_cv;
      config.beacon_thresholds.push_back(c);
    }
  config.tor_min_flows = {1, 3, 10, 30};

  FlowScorer scorer(config);
  feed_trace(replay.trace, scorer);
  scorer.finish();
  EXPECT_EQ(scorer.flows_scored(), replay.trace.flows.size());

  // Exact set equality against every batch operating point: same
  // arithmetic (shared coefficient_of_variation), same verdicts.
  const std::size_t beacons = config.beacon_thresholds.size();
  ASSERT_EQ(scorer.flagged().size(), beacons + config.tor_min_flows.size());
  for (std::size_t i = 0; i < config.beacon_thresholds.size(); ++i) {
    DetectionResult batch =
        detect_beacons(replay.trace, config.beacon_thresholds[i]);
    std::sort(batch.flagged.begin(), batch.flagged.end());
    EXPECT_EQ(scorer.flagged()[i], batch.flagged)
        << "beacon threshold " << i << " diverged";
  }
  for (std::size_t i = 0; i < config.tor_min_flows.size(); ++i) {
    DetectionResult batch =
        detect_tor_users(replay.trace, config.tor_min_flows[i]);
    std::sort(batch.flagged.begin(), batch.flagged.end());
    EXPECT_EQ(scorer.flagged()[beacons + i], batch.flagged)
        << "tor threshold " << i << " diverged";
  }

  // Second input: a family-resolved RocSweep, whose flow points all come
  // from one FlowScorer pass, against the points scored from one batch
  // detector call per threshold — at every thread count.
  const GroundTruth families = replay_ground_truth(replay);
  const ScoringTruth truth(replay.trace.infected, replay.trace.hosts);
  const auto reference = [&](const std::string& detector,
                             const std::string& params,
                             DetectionResult batch) {
    std::sort(batch.flagged.begin(), batch.flagged.end());
    return serialize(
        score_point(detector, params, batch.flagged, truth, families));
  };
  const RocConfig defaults;
  std::vector<Bytes> expected_flow;
  for (const double size_cv : defaults.flow_size_cv)
    for (const double gap_cv : defaults.flow_gap_cv) {
      FlowDetectorConfig c;
      c.size_cv_threshold = size_cv;
      c.gap_cv_threshold = gap_cv;
      expected_flow.push_back(reference(
          "flow-beacon", "size_cv=" + g(size_cv) + ",gap_cv=" + g(gap_cv),
          detect_beacons(replay.trace, c)));
    }
  for (const std::size_t min_flows : defaults.tor_min_flows)
    expected_flow.push_back(
        reference("tor-flagger", "min_flows=" + std::to_string(min_flows),
                  detect_tor_users(replay.trace, min_flows)));

  std::string fingerprint;
  for (const std::size_t threads : {1, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    RocConfig sweep_config;
    sweep_config.threads = threads;
    const RocReport report =
        RocSweep(sweep_config).run(replay.trace, families);
    ASSERT_EQ(report.points.size(), 68u);
    std::vector<Bytes> flow;
    for (const RocPoint& p : report.points)
      if (p.detector == "flow-beacon" || p.detector == "tor-flagger")
        flow.push_back(serialize(p));
    EXPECT_EQ(flow, expected_flow);
    if (fingerprint.empty()) fingerprint = report.fingerprint;
    EXPECT_EQ(report.fingerprint, fingerprint);
  }

  // Empty flow and tor axes drop those families (no pass runs at all);
  // the other 48 points are unchanged. An empty gap axis alone drops
  // only the beacon family.
  const RocReport full = RocSweep().run(replay.trace, families);
  const auto without = [&](const std::set<std::string>& dropped) {
    std::vector<Bytes> kept;
    for (const RocPoint& p : full.points)
      if (dropped.count(p.detector) == 0) kept.push_back(serialize(p));
    return kept;
  };
  const auto serialized = [](const RocReport& report) {
    std::vector<Bytes> out;
    for (const RocPoint& p : report.points) out.push_back(serialize(p));
    return out;
  };
  RocConfig no_flow;
  no_flow.flow_size_cv.clear();
  no_flow.tor_min_flows.clear();
  EXPECT_EQ(RocSweep(no_flow).cell_count(), 48u);
  EXPECT_EQ(serialized(RocSweep(no_flow).run(replay.trace, families)),
            without({"flow-beacon", "tor-flagger"}));
  RocConfig no_beacon;
  no_beacon.flow_gap_cv.clear();
  EXPECT_EQ(serialized(RocSweep(no_beacon).run(replay.trace, families)),
            without({"flow-beacon"}));
}

// ====================================================================
// Batch families: one feature pass == one detect_X call per threshold
// ====================================================================

// The fast-flux and P2P feature passes as they were before they kept
// each name's clients and read the monitored set from a sorted vector,
// verbatim (renamed, comments trimmed), plus the second DNS scan that
// flagging the clients of fluxed names replaced.
std::vector<FluxFeatures> previous_flux_features(const TrafficTrace& trace) {
  struct Accum {
    std::set<std::uint32_t> ips;
    std::size_t answers = 0;
    double ttl_sum = 0.0;
  };
  std::map<std::string, Accum> per_name;
  for (const DnsRecord& r : trace.dns) {
    if (r.nxdomain) continue;
    Accum& a = per_name[r.qname];
    ++a.answers;
    a.ips.insert(r.resolved);
    a.ttl_sum += static_cast<double>(r.ttl);
  }

  std::vector<FluxFeatures> out;
  out.reserve(per_name.size());
  for (const auto& [name, a] : per_name) {
    FluxFeatures f;
    f.qname = name;
    f.answers = a.answers;
    f.distinct_ips = a.ips.size();
    f.mean_ttl = a.ttl_sum / static_cast<double>(a.answers);
    out.push_back(f);
  }
  return out;
}

std::vector<std::string> previous_fluxed_domains(
    const TrafficTrace& trace, const FluxDetectorConfig& config) {
  std::vector<std::string> out;
  for (const FluxFeatures& f : previous_flux_features(trace)) {
    if (f.answers < config.min_answers) continue;
    if (f.distinct_ips <= config.distinct_ips_threshold) continue;
    if (f.mean_ttl >= config.ttl_threshold) continue;
    out.push_back(f.qname);
  }
  return out;
}

DetectionResult previous_detect_fastflux(const TrafficTrace& trace,
                                         const FluxDetectorConfig& config) {
  const std::vector<std::string> bad = previous_fluxed_domains(trace, config);
  const std::set<std::string> bad_set(bad.begin(), bad.end());

  DetectionResult result;
  std::set<HostId> flagged;
  for (const DnsRecord& r : trace.dns)
    if (!r.nxdomain && bad_set.count(r.qname) > 0) flagged.insert(r.client);
  result.flagged.assign(flagged.begin(), flagged.end());
  return result;
}

std::vector<MeshFeatures> previous_mesh_features(const TrafficTrace& trace,
                                                 std::size_t min_pair_bytes) {
  const std::set<HostId> monitored(trace.hosts.begin(), trace.hosts.end());

  std::map<std::pair<HostId, HostId>, std::size_t> pair_bytes;
  for (const FlowRecord& f : trace.flows) {
    if (f.src == f.dst) continue;
    if (monitored.count(f.src) == 0 || monitored.count(f.dst) == 0)
      continue;
    const auto key = f.src < f.dst ? std::make_pair(f.src, f.dst)
                                   : std::make_pair(f.dst, f.src);
    pair_bytes[key] += f.bytes;
  }

  std::map<HostId, std::set<HostId>> adjacency;
  for (const auto& [pair, bytes] : pair_bytes) {
    if (bytes < min_pair_bytes) continue;
    adjacency[pair.first].insert(pair.second);
    adjacency[pair.second].insert(pair.first);
  }

  std::vector<MeshFeatures> out;
  out.reserve(adjacency.size());
  for (const auto& [host, peers] : adjacency) {
    MeshFeatures f;
    f.host = host;
    f.peer_degree = peers.size();
    if (peers.size() >= 2) {
      std::size_t connected_pairs = 0;
      std::size_t total_pairs = 0;
      for (auto it = peers.begin(); it != peers.end(); ++it) {
        for (auto jt = std::next(it); jt != peers.end(); ++jt) {
          ++total_pairs;
          const auto a = adjacency.find(*it);
          if (a != adjacency.end() && a->second.count(*jt) > 0)
            ++connected_pairs;
        }
      }
      f.peer_interconnection =
          total_pairs == 0 ? 0.0
                           : static_cast<double>(connected_pairs) /
                                 static_cast<double>(total_pairs);
    }
    out.push_back(f);
  }
  return out;
}

/// The feature passes equal their previous form field for field (bit
/// for bit on the doubles), and fast-flux flags the same hosts as the
/// second DNS scan did.
void expect_previous_features(const TrafficTrace& trace) {
  const std::vector<FluxFeatures> flux = flux_features(trace);
  const std::vector<FluxFeatures> flux_before = previous_flux_features(trace);
  ASSERT_EQ(flux.size(), flux_before.size());
  for (std::size_t i = 0; i < flux.size(); ++i) {
    EXPECT_EQ(flux[i].qname, flux_before[i].qname);
    EXPECT_EQ(flux[i].answers, flux_before[i].answers);
    EXPECT_EQ(flux[i].distinct_ips, flux_before[i].distinct_ips);
    EXPECT_EQ(flux[i].mean_ttl, flux_before[i].mean_ttl);
    EXPECT_TRUE(std::adjacent_find(flux[i].clients.begin(),
                                   flux[i].clients.end(),
                                   std::greater_equal<HostId>()) ==
                flux[i].clients.end())
        << "clients must ascend without duplicates";
  }
  for (const std::size_t ips : {std::size_t{0}, std::size_t{5}})
    for (const double ttl : {120.0, 1e9}) {
      FluxDetectorConfig c;
      c.distinct_ips_threshold = ips;
      c.ttl_threshold = ttl;
      c.min_answers = 1;
      EXPECT_EQ(detect_fastflux(trace, c).flagged,
                previous_detect_fastflux(trace, c).flagged);
    }
  for (const std::size_t min_bytes : {std::size_t{0}, std::size_t{50},
                                      std::size_t{5000}}) {
    const std::vector<MeshFeatures> mesh = mesh_features(trace, min_bytes);
    const std::vector<MeshFeatures> mesh_before =
        previous_mesh_features(trace, min_bytes);
    ASSERT_EQ(mesh.size(), mesh_before.size());
    for (std::size_t i = 0; i < mesh.size(); ++i) {
      EXPECT_EQ(mesh[i].host, mesh_before[i].host);
      EXPECT_EQ(mesh[i].peer_degree, mesh_before[i].peer_degree);
      EXPECT_EQ(mesh[i].peer_interconnection,
                mesh_before[i].peer_interconnection);
    }
  }
}

std::string label(const char* key, const std::string& value,
                  const char* key2, const std::string& value2) {
  std::string out = key;
  out += "=";
  out += value;
  out += ",";
  out += key2;
  out += "=";
  out += value2;
  return out;
}

/// The sweep's dga, flux and p2p points, serialized, in grid order.
std::vector<Bytes> batch_points(const RocReport& report) {
  std::vector<Bytes> out;
  for (const RocPoint& p : report.points)
    if (p.detector == "dga-dns" || p.detector == "fast-flux" ||
        p.detector == "p2p-mesh")
      out.push_back(serialize(p));
  return out;
}

/// One direct detect_X call per threshold of `config`'s batch axes,
/// scored as a sweep cell: the reference every batch point must equal.
std::vector<Bytes> direct_batch_points(const TrafficTrace& trace,
                                       const RocConfig& config,
                                       const GroundTruth& families) {
  const ScoringTruth truth(trace.infected, trace.hosts);
  std::vector<Bytes> out;
  const auto add = [&](const char* detector, const std::string& params,
                       DetectionResult r) {
    std::sort(r.flagged.begin(), r.flagged.end());
    out.push_back(serialize(
        score_point(detector, params, r.flagged, truth, families)));
  };
  for (const double entropy : config.dga_entropy)
    for (const double ratio : config.dga_nxdomain) {
      DgaDetectorConfig c;
      c.entropy_threshold = entropy;
      c.nxdomain_ratio_threshold = ratio;
      add("dga-dns", label("entropy", g(entropy), "nxdomain", g(ratio)),
          detect_dga(trace, c));
    }
  for (const std::size_t ips : config.flux_distinct_ips)
    for (const double ttl : config.flux_ttl) {
      FluxDetectorConfig c;
      c.distinct_ips_threshold = ips;
      c.ttl_threshold = ttl;
      add("fast-flux",
          label("distinct_ips", std::to_string(ips), "ttl", g(ttl)),
          detect_fastflux(trace, c));
    }
  for (const std::size_t degree : config.p2p_degree)
    for (const double inter : config.p2p_interconnection) {
      P2pDetectorConfig c;
      c.min_peer_degree = degree;
      c.min_peer_interconnection = inter;
      add("p2p-mesh",
          label("degree", std::to_string(degree), "interconnection",
                g(inter)),
          detect_p2p(trace, c));
    }
  return out;
}

/// Up to five observed values, evenly spaced through the sorted distinct
/// values (first and last included), appended to `axis`.
template <class T>
void add_observed(std::vector<T>& axis, std::vector<T> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  for (std::size_t i = 0; i < 5 && !values.empty(); ++i)
    axis.push_back(values[i * (values.size() - 1) / 4]);
}

/// The default axes plus thresholds placed exactly on observed feature
/// values, so every `<` / `<=` edge of the three rules is exercised.
RocConfig edge_axes(const TrafficTrace& trace) {
  RocConfig config;
  std::vector<double> entropy, ratio, ttl, inter;
  std::vector<std::size_t> ips, degree;
  for (const DgaFeatures& f : dga_features(trace)) {
    entropy.push_back(f.failed_name_entropy);
    ratio.push_back(f.nxdomain_ratio);
  }
  for (const FluxFeatures& f : flux_features(trace)) {
    ips.push_back(f.distinct_ips);
    ttl.push_back(f.mean_ttl);
  }
  for (const MeshFeatures& f :
       mesh_features(trace, P2pDetectorConfig{}.min_pair_bytes)) {
    degree.push_back(f.peer_degree);
    inter.push_back(f.peer_interconnection);
  }
  add_observed(config.dga_entropy, entropy);
  add_observed(config.dga_nxdomain, ratio);
  add_observed(config.flux_distinct_ips, ips);
  add_observed(config.flux_ttl, ttl);
  add_observed(config.p2p_degree, degree);
  add_observed(config.p2p_interconnection, inter);
  return config;
}

/// Every batch point of `config`'s sweep, at 1, 3 and 8 threads, equals
/// the direct reference.
void expect_batch_points_direct(const TrafficTrace& trace,
                                const GroundTruth& families,
                                RocConfig config) {
  const std::vector<Bytes> expected =
      direct_batch_points(trace, config, families);
  for (const std::size_t threads : {1, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    config.threads = threads;
    const RocSweep sweep(config);
    const RocReport report = sweep.run(trace, families);
    ASSERT_EQ(report.points.size(), sweep.cell_count());
    EXPECT_EQ(batch_points(report), expected);
  }
}

TEST(RocSweep, BatchFamiliesMatchOneDirectCallPerThreshold) {
  const CampaignTrace campaign = record(busy_spec(58));
  for (const std::uint64_t seed : {0x5ca1e, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "replay seed " << seed);
    const ReplayResult replay = replay_trace(campaign, small_replay(seed));
    const GroundTruth families = replay_ground_truth(replay);
    expect_previous_features(replay.trace);
    const RocConfig config = edge_axes(replay.trace);
    ASSERT_GT(config.dga_entropy.size(), 4u);
    ASSERT_GT(config.flux_distinct_ips.size(), 4u);
    ASSERT_GT(config.p2p_degree.size(), 4u);
    expect_batch_points_direct(replay.trace, families, config);

    // Empty axes drop their family, and only that family.
    const std::size_t full = RocSweep(config).cell_count();
    RocConfig no_dga = config;
    no_dga.dga_nxdomain.clear();
    RocConfig no_flux = config;
    no_flux.flux_distinct_ips.clear();
    RocConfig no_p2p = config;
    no_p2p.p2p_interconnection.clear();
    RocConfig none = config;
    none.dga_entropy.clear();
    none.flux_ttl.clear();
    none.p2p_degree.clear();
    EXPECT_EQ(RocSweep(no_dga).cell_count(),
              full - config.dga_entropy.size() * config.dga_nxdomain.size());
    EXPECT_EQ(RocSweep(none).cell_count(), 20u);  // the flow cells
    for (const RocConfig& dropped : {no_dga, no_flux, no_p2p, none})
      expect_batch_points_direct(replay.trace, families, dropped);
  }

  // A replay with no legacy families, and the same capture with no DNS
  // at all: the DNS families have no features to flag.
  ReplayConfig onion_only = small_replay(4);
  onion_only.centralized_bots = 0;
  onion_only.dga_bots = 0;
  onion_only.fastflux_bots = 0;
  onion_only.p2p_bots = 0;
  const ReplayResult replay = replay_trace(campaign, onion_only);
  const GroundTruth families = replay_ground_truth(replay);
  expect_batch_points_direct(replay.trace, families, edge_axes(replay.trace));
  TrafficTrace no_dns = replay.trace;
  no_dns.dns.clear();
  // Self-flows and flows to unmonitored hosts never enter the mesh.
  TrafficTrace odd = no_dns;
  for (const HostId h : {odd.hosts[0], odd.hosts[1], odd.hosts[2]}) {
    odd.flows.push_back({h, h, 7871, 4000, false, 0});
    odd.flows.push_back({h, odd.hosts[3], 7871, 4000, false, 0});
    odd.flows.push_back({h, 0xfffffff0u, 7871, 4000, false, 0});
  }
  expect_previous_features(odd);
  EXPECT_TRUE(dga_features(no_dns).empty());
  EXPECT_TRUE(flux_features(no_dns).empty());
  expect_batch_points_direct(no_dns, families, edge_axes(no_dns));
}

// ====================================================================
// The shared operating-point scorer
// ====================================================================

TEST(ScorePoint, CountsAHandBuiltVerdict) {
  const ScoringTruth truth({9, 2, 5}, {1, 2, 3, 4, 5, 9});
  EXPECT_EQ(truth.benign, 3u);
  GroundTruth families;
  families.populations = {{"onion", {2, 9}},
                          {"dga", {5}},
                          {"benign_web", {1, 3, 4}}};

  // 7 is flagged but not monitored: neither a TP nor an FP.
  const RocPoint p =
      score_point("flow-beacon", "k=v", {1, 2, 7, 9}, truth, families);
  EXPECT_EQ(p.detector, "flow-beacon");
  EXPECT_EQ(p.params, "k=v");
  EXPECT_EQ(p.flagged, 4u);
  EXPECT_EQ(p.true_positives, 2u);
  EXPECT_EQ(p.false_positives, 1u);
  EXPECT_DOUBLE_EQ(p.tpr, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.fpr, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.precision, 2.0 / 4.0);
  // Per-family counts come out in GroundTruth order.
  ASSERT_EQ(p.families.size(), 3u);
  const std::vector<std::string> names = {"onion", "dga", "benign_web"};
  const std::vector<std::size_t> flagged = {2, 0, 1};
  const std::vector<std::size_t> population = {2, 1, 3};
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(p.families[i].family, names[i]);
    EXPECT_EQ(p.families[i].flagged, flagged[i]);
    EXPECT_EQ(p.families[i].population, population[i]);
  }

  // Zero denominators: no infected hosts → TPR 0; no benign hosts → FPR 0.
  const RocPoint clean =
      score_point("d", "", {1}, ScoringTruth({}, {1, 2}), GroundTruth{});
  EXPECT_EQ(clean.false_positives, 1u);
  EXPECT_EQ(clean.tpr, 0.0);
  EXPECT_DOUBLE_EQ(clean.fpr, 0.5);
  EXPECT_TRUE(clean.families.empty());

  const RocPoint bots =
      score_point("d", "", {1}, ScoringTruth({1, 2}, {1, 2}), GroundTruth{});
  EXPECT_EQ(bots.true_positives, 1u);
  EXPECT_DOUBLE_EQ(bots.tpr, 0.5);
  EXPECT_EQ(bots.fpr, 0.0);
}

// ====================================================================
// Streamed replay
// ====================================================================

/// A sink that checks the grouped-delivery contract and counts flows.
class GroupingCheckSink final : public FlowSink {
 public:
  void on_relays(const std::vector<HostId>& relays) override {
    relays_seen_ = relays.size();
  }
  void on_flow(const FlowRecord& f) override {
    if (current_ != kNone && f.src != current_) {
      EXPECT_EQ(done_.count(f.src), 0u)
          << "host " << f.src << " reopened after on_host_done";
    }
    current_ = f.src;
    ++flows_;
  }
  void on_host_done(HostId host) override {
    done_.insert(host);
    current_ = kNone;
  }

  std::uint64_t flows() const { return flows_; }
  std::size_t relays_seen() const { return relays_seen_; }

 private:
  static constexpr HostId kNone = ~HostId{0};
  HostId current_ = kNone;
  std::set<HostId> done_;
  std::uint64_t flows_ = 0;
  std::size_t relays_seen_ = 0;
};

TEST(StreamingReplay, PopulationsMatchTheBatchReplay) {
  const CampaignTrace campaign = record(busy_spec(52));
  // Both paths select bots through compose_replay: the default, a window
  // shorter than the horizon (late joiners dropped), a cap, and none.
  std::vector<ReplayConfig> configs(4, small_replay(0x5ca1e));
  configs[1].window = campaign.horizon() / 2;
  configs[2].max_onion_bots = 40;
  configs[3].max_onion_bots = 0;
  for (const ReplayConfig& rc : configs) {
    SCOPED_TRACE(::testing::Message() << "window " << rc.window << ", cap "
                                      << rc.max_onion_bots);
    const ReplayResult batch = replay_trace(campaign, rc);

    GroupingCheckSink sink;
    const StreamPopulations pops =
        replay_trace_streaming(campaign, rc, sink);

    // Same population layout and host-id assignment as the batch path.
    EXPECT_EQ(pops.infected, batch.trace.infected);
    EXPECT_EQ(pops.monitored, batch.trace.hosts);
    EXPECT_EQ(pops.known_tor_relays, batch.trace.known_tor_relays);
    EXPECT_EQ(sink.relays_seen(), batch.trace.known_tor_relays.size());
    EXPECT_EQ(pops.flows, sink.flows());
    EXPECT_GT(pops.flows, 0u);

    // The named family populations tile the infected set.
    const GroundTruth batch_truth = replay_ground_truth(batch);
    ASSERT_EQ(pops.truth.populations.size(),
              batch_truth.populations.size());
    for (std::size_t i = 0; i < batch_truth.populations.size(); ++i) {
      EXPECT_EQ(pops.truth.populations[i].name,
                batch_truth.populations[i].name);
      EXPECT_EQ(pops.truth.populations[i].hosts,
                batch_truth.populations[i].hosts);
    }
  }
  // The inputs really select different populations.
  const auto onion = [&](const ReplayConfig& rc) {
    return replay_trace(campaign, rc).onion_bots.size();
  };
  const std::size_t all = campaign.lifetimes().size();
  EXPECT_EQ(onion(configs[0]), all);
  EXPECT_LT(onion(configs[1]), all) << "spec should have late joiners";
  EXPECT_EQ(onion(configs[2]), 40u);
  EXPECT_EQ(onion(configs[3]), 0u);
}

TEST(StreamingReplay, IsDeterministicPerSeedAndSeedSensitive) {
  const CampaignTrace campaign = record(busy_spec(53));

  FlowScorerConfig config;
  FlowDetectorConfig c;
  config.beacon_thresholds.push_back(c);
  config.tor_min_flows = {3};

  const auto run = [&](std::uint64_t seed) {
    FlowScorer scorer(config);
    const StreamPopulations pops =
        replay_trace_streaming(campaign, small_replay(seed), scorer);
    scorer.finish();
    return std::pair<std::uint64_t, std::vector<HostId>>(
        pops.flows, scorer.flagged()[1]);  // the tor threshold
  };

  const auto a = run(7), b = run(7), c2 = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c2);
}

// ====================================================================
// The grid
// ====================================================================

ReplayGridConfig small_grid() {
  ReplayGridConfig config;
  config.replay_seeds = {1, 2};
  config.replay = small_replay(0);  // per-cell seed overrides this
  config.flow_size_cv = {0.25, 0.5};
  config.flow_gap_cv = {0.45, 1.0};
  config.tor_min_flows = {1, 10};
  return config;
}

TEST(ReplayGrid, FingerprintIsThreadCountInvariant) {
  const CampaignTrace campaign = record(busy_spec(54));

  ReplayGridConfig config = small_grid();
  config.threads = 1;
  const ReplayGridReport serial = ReplayGrid(config).run(campaign);
  config.threads = 4;
  const ReplayGridReport wide = ReplayGrid(config).run(campaign);

  EXPECT_EQ(serial.points.size(),
            config.replay_seeds.size() * ReplayGrid(config).points_per_cell());
  EXPECT_EQ(serial.fingerprint, wide.fingerprint);
  EXPECT_GE(wide.threads_used, serial.threads_used);
}

TEST(ReplayGrid, PointsScoreAgainstTheFamilyGroundTruth) {
  const CampaignTrace campaign = record(busy_spec(55));
  const ReplayGridReport report =
      ReplayGrid(small_grid()).run(campaign);

  for (const ReplayGridPoint& p : report.points) {
    EXPECT_TRUE(p.detector == "flow-beacon" || p.detector == "tor-flagger");
    EXPECT_GT(p.flows, 0u);
    // Counts are internally consistent: flagged covers TP+FP (flagged
    // hosts outside the monitored set cannot exist by construction),
    // rates are in range, and family counts never exceed populations.
    EXPECT_EQ(p.true_positives + p.false_positives, p.flagged);
    EXPECT_GE(p.tpr, 0.0);
    EXPECT_LE(p.tpr, 1.0);
    EXPECT_GE(p.fpr, 0.0);
    EXPECT_LE(p.fpr, 1.0);
    ASSERT_FALSE(p.families.empty());
    std::size_t family_flagged = 0;
    for (const RocFamilyCount& f : p.families) {
      EXPECT_LE(f.flagged, f.population);
      family_flagged += f.flagged;
    }
    EXPECT_EQ(family_flagged, p.flagged);
  }

  // Grid order: campaign-major, seed, then detector axes.
  ASSERT_FALSE(report.points.empty());
  EXPECT_EQ(report.points.front().replay_seed, 1u);
  EXPECT_EQ(report.points.back().replay_seed, 2u);
}

// ====================================================================
// Family-resolved RocSweep
// ====================================================================

TEST(RocSweep, FamilyResolutionKeepsTheAggregateEncodingByteIdentical) {
  const CampaignTrace campaign = record(busy_spec(56));
  const ReplayResult replay = replay_trace(campaign, small_replay(0x5ca1e));
  const GroundTruth truth = replay_ground_truth(replay);
  ASSERT_FALSE(truth.populations.empty());

  const RocSweep sweep;
  const RocReport aggregate = sweep.run(replay.trace);
  const RocReport resolved = sweep.run(replay.trace, truth);
  ASSERT_EQ(aggregate.points.size(), resolved.points.size());

  for (std::size_t i = 0; i < aggregate.points.size(); ++i) {
    const RocPoint& a = aggregate.points[i];
    const RocPoint& r = resolved.points[i];
    // The legacy aggregate view is untouched: a family-resolved point
    // with its families stripped serializes to the exact legacy bytes.
    EXPECT_TRUE(a.families.empty());
    ASSERT_EQ(r.families.size(), truth.populations.size());
    RocPoint stripped = r;
    stripped.families.clear();
    EXPECT_EQ(serialize(stripped), serialize(a));
    // And the family columns are the verdict restricted per population:
    // the infected families' flagged counts sum to the true positives.
    std::size_t infected_flagged = 0;
    for (const RocFamilyCount& f : r.families) {
      EXPECT_LE(f.flagged, f.population);
      if (f.family != "benign_web" && f.family != "benign_tor")
        infected_flagged += f.flagged;
    }
    EXPECT_EQ(infected_flagged, a.true_positives);
  }
  // Same verdicts → same aggregate rates; the fingerprints differ only
  // because the resolved points carry the family block.
  EXPECT_NE(aggregate.fingerprint, resolved.fingerprint);
}

TEST(GroundTruthOrder, PopulationsArriveInTheFixedFamilyOrder) {
  const CampaignTrace campaign = record(busy_spec(57));
  const ReplayResult replay = replay_trace(campaign, small_replay(1));
  const GroundTruth truth = replay_ground_truth(replay);

  const std::vector<std::string> expected = {
      "onion",    "centralized", "dga", "fastflux",
      "p2p",      "benign_web",  "benign_tor"};
  ASSERT_EQ(truth.populations.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(truth.populations[i].name, expected[i]);
    EXPECT_FALSE(truth.populations[i].hosts.empty());
    EXPECT_TRUE(std::is_sorted(truth.populations[i].hosts.begin(),
                               truth.populations[i].hosts.end()));
  }
}

}  // namespace
}  // namespace onion::detection
