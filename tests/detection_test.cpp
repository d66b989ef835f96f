// Detection-module tests: each detector catches the botnet family whose
// published signature it encodes, stays quiet on benign traffic, and —
// the module's reason to exist — comes up empty against OnionBot
// traffic (paper §II/§VI: every network-level technique the paper
// surveys fails once the C&C moves inside Tor).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "detection/dga_detector.hpp"
#include "detection/fastflux_detector.hpp"
#include "detection/flow_detector.hpp"
#include "detection/p2p_detector.hpp"
#include "detection/telemetry.hpp"
#include "detection/tor_flagger.hpp"
#include "detection/traffic.hpp"

namespace onion::detection {
namespace {

TrafficConfig small_config() {
  TrafficConfig cfg;
  cfg.window = 12 * kHour;
  cfg.bots = 20;
  cfg.benign_web = 60;
  cfg.benign_tor = 10;
  return cfg;
}

// --- telemetry scoring ------------------------------------------------

TEST(Telemetry, RatesAgainstGroundTruth) {
  TrafficTrace trace;
  trace.hosts = {1, 2, 3, 4};
  trace.infected = {1, 2};
  DetectionResult r;
  r.flagged = {1, 3};
  EXPECT_DOUBLE_EQ(r.true_positive_rate(trace), 0.5);
  EXPECT_DOUBLE_EQ(r.false_positive_rate(trace), 0.5);
}

TEST(Telemetry, EmptyTraceYieldsZeroRates) {
  TrafficTrace trace;
  DetectionResult r;
  EXPECT_DOUBLE_EQ(r.true_positive_rate(trace), 0.0);
  EXPECT_DOUBLE_EQ(r.false_positive_rate(trace), 0.0);
}

TEST(Telemetry, AppendMergesAllStreams) {
  TrafficTrace a;
  a.hosts = {1};
  a.dns.push_back(DnsRecord{1, "x.example", false, 60, 7, 0});
  TrafficTrace b;
  b.hosts = {2};
  b.flows.push_back(FlowRecord{2, 9, 80, 100, false, 0});
  b.infected = {2};
  a.append(b);
  EXPECT_EQ(a.hosts.size(), 2u);
  EXPECT_EQ(a.dns.size(), 1u);
  EXPECT_EQ(a.flows.size(), 1u);
  EXPECT_EQ(a.infected.size(), 1u);
}

TEST(Telemetry, AppendDeduplicatesGroundTruthPreservingOrder) {
  // Two captures sharing the relay registry and some hosts must not
  // double-count anything a rate denominator uses.
  TrafficTrace a;
  a.hosts = {1, 2, 3};
  a.infected = {3};
  a.known_tor_relays = {90, 91};
  TrafficTrace b;
  b.hosts = {2, 4, 3, 5};
  b.infected = {3, 4};
  b.known_tor_relays = {91, 92};
  a.append(b);
  EXPECT_EQ(a.hosts, (std::vector<HostId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(a.infected, (std::vector<HostId>{3, 4}));
  EXPECT_EQ(a.known_tor_relays, (std::vector<HostId>{90, 91, 92}));
  // Scoring a verdict over the merged trace sees each host once.
  DetectionResult r;
  r.flagged = {3, 4};
  EXPECT_DOUBLE_EQ(r.true_positive_rate(a), 1.0);
  EXPECT_DOUBLE_EQ(r.false_positive_rate(a), 0.0);
}

TEST(Telemetry, SerializationCoversEveryStream) {
  TrafficTrace a;
  a.hosts = {1, 2};
  a.infected = {2};
  a.known_tor_relays = {9};
  a.dns.push_back(DnsRecord{1, "x.example", false, 60, 7, 5});
  a.flows.push_back(FlowRecord{2, 9, 443, 1024, true, 6});
  const TrafficTrace b = a;
  EXPECT_EQ(serialize(a), serialize(b));
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  TrafficTrace c = a;
  c.flows[0].bytes = 1025;  // any field change must move the bytes
  EXPECT_NE(serialize(a), serialize(c));
  TrafficTrace d = a;
  d.dns[0].qname = "y.example";
  EXPECT_NE(serialize(a), serialize(d));
  TrafficTrace e = a;
  e.known_tor_relays.push_back(10);
  EXPECT_NE(serialize(a), serialize(e));
}

// --- workload generators ----------------------------------------------

TEST(Traffic, GeneratorsProduceLabelledHosts) {
  Rng rng(11);
  const TrafficConfig cfg = small_config();
  for (const auto* name : {"centralized", "dga", "fastflux", "p2p",
                           "onion"}) {
    Rng local(rng.next_u64());
    TrafficTrace trace;
    if (std::string(name) == "centralized")
      trace = centralized_http_traffic(cfg, local);
    else if (std::string(name) == "dga")
      trace = dga_traffic(cfg, local);
    else if (std::string(name) == "fastflux")
      trace = fastflux_traffic(cfg, local);
    else if (std::string(name) == "p2p")
      trace = p2p_plain_traffic(cfg, local);
    else
      trace = onionbot_traffic(cfg, local);
    EXPECT_EQ(trace.infected.size(), cfg.bots) << name;
    EXPECT_GE(trace.hosts.size(), cfg.bots + cfg.benign_web) << name;
    EXPECT_FALSE(trace.flows.empty()) << name;
    // Infected hosts are monitored hosts.
    const std::set<HostId> hosts(trace.hosts.begin(), trace.hosts.end());
    for (const HostId bot : trace.infected)
      EXPECT_TRUE(hosts.count(bot) > 0) << name;
  }
}

TEST(Traffic, OnionBotEmitsNoBotDnsAndOnlyCellSizedTorFlows) {
  Rng rng(12);
  TrafficConfig cfg = small_config();
  cfg.benign_web = 0;  // isolate the bots (plus relay registry)
  cfg.benign_tor = 0;
  const TrafficTrace trace = onionbot_traffic(cfg, rng);
  const std::set<HostId> bots(trace.infected.begin(), trace.infected.end());
  const std::set<HostId> relays(trace.known_tor_relays.begin(),
                                trace.known_tor_relays.end());
  for (const FlowRecord& f : trace.flows) {
    if (bots.count(f.src) == 0) continue;
    if (relays.count(f.dst) > 0) {
      EXPECT_TRUE(f.encrypted);
      EXPECT_EQ(f.bytes % 512, 0u) << "Tor moves fixed-size cells";
    }
  }
  // The bots browse like their human owners, but the *botnet* adds no
  // DNS: every bot DNS record here comes from the browsing model, none
  // from C&C (no .onion name ever reaches the resolver). With browsing
  // disabled for this check we confirm zero non-browsing DNS:
  for (const DnsRecord& r : trace.dns) {
    // browsing emits benign names only; no bot C&C domain exists
    EXPECT_TRUE(r.qname.find(".example") != std::string::npos);
  }
}

TEST(Traffic, BenignBackgroundHasNoInfectedHosts) {
  Rng rng(13);
  const TrafficTrace trace = benign_background(small_config(), rng);
  EXPECT_TRUE(trace.infected.empty());
  EXPECT_FALSE(trace.dns.empty());
}

// --- DGA detector -------------------------------------------------------

TEST(DgaDetector, NameEntropySeparatesGeneratedFromHuman) {
  EXPECT_LT(name_entropy("mail.example"), 3.2);
  EXPECT_LT(name_entropy("banana.example"), 2.8);
  EXPECT_GT(name_entropy("xkqvzhwpltjmrd.example"), 3.2);
  EXPECT_DOUBLE_EQ(name_entropy(""), 0.0);
  EXPECT_DOUBLE_EQ(name_entropy(".example"), 0.0);
}

TEST(DgaDetector, CatchesDgaBots) {
  Rng rng(21);
  const TrafficTrace trace = dga_traffic(small_config(), rng);
  const DetectionResult r = detect_dga(trace);
  EXPECT_GE(r.true_positive_rate(trace), 0.95);
  EXPECT_LE(r.false_positive_rate(trace), 0.02);
}

TEST(DgaDetector, QuietOnBenign) {
  Rng rng(22);
  const TrafficTrace trace = benign_background(small_config(), rng);
  const DetectionResult r = detect_dga(trace);
  EXPECT_TRUE(r.flagged.empty());
}

TEST(DgaDetector, BlindToOnionBots) {
  Rng rng(23);
  const TrafficTrace trace = onionbot_traffic(small_config(), rng);
  const DetectionResult r = detect_dga(trace);
  EXPECT_DOUBLE_EQ(r.true_positive_rate(trace), 0.0);
}

TEST(DgaDetector, FeatureVectorShapes) {
  Rng rng(24);
  const TrafficTrace trace = dga_traffic(small_config(), rng);
  const auto features = dga_features(trace);
  EXPECT_FALSE(features.empty());
  // Bots dominate the NXDOMAIN tail.
  const std::set<HostId> bots(trace.infected.begin(),
                              trace.infected.end());
  double bot_max_ratio = 0.0, benign_max_ratio = 0.0;
  for (const auto& f : features) {
    if (bots.count(f.host) > 0)
      bot_max_ratio = std::max(bot_max_ratio, f.nxdomain_ratio);
    else
      benign_max_ratio = std::max(benign_max_ratio, f.nxdomain_ratio);
  }
  EXPECT_GT(bot_max_ratio, benign_max_ratio);
}

// --- fast-flux detector -------------------------------------------------

/// Names judged fluxed under the config.
std::vector<std::string> fluxed_domains(const TrafficTrace& trace,
                                        const FluxDetectorConfig& config) {
  std::vector<std::string> out;
  for (const FluxFeatures& f : flux_features(trace))
    if (is_fluxed(f, config)) out.push_back(f.qname);
  return out;
}

TEST(FluxDetector, CatchesFluxedDomainAndItsClients) {
  Rng rng(31);
  const TrafficTrace trace = fastflux_traffic(small_config(), rng);
  const auto domains = fluxed_domains(trace, {});
  ASSERT_EQ(domains.size(), 1u);
  EXPECT_EQ(domains[0], "promo-deals.example");
  const DetectionResult r = detect_fastflux(trace);
  EXPECT_GE(r.true_positive_rate(trace), 0.95);
  EXPECT_LE(r.false_positive_rate(trace), 0.02);
}

TEST(FluxDetector, QuietOnBenign) {
  Rng rng(32);
  const TrafficTrace trace = benign_background(small_config(), rng);
  EXPECT_TRUE(fluxed_domains(trace, {}).empty());
}

TEST(FluxDetector, BlindToOnionBots) {
  Rng rng(33);
  const TrafficTrace trace = onionbot_traffic(small_config(), rng);
  const DetectionResult r = detect_fastflux(trace);
  EXPECT_DOUBLE_EQ(r.true_positive_rate(trace), 0.0);
}

TEST(FluxDetector, PopularSiteWithManyIpsNeedsShortTtlToo) {
  // A CDN-like name resolving to many IPs at normal TTLs must not flux.
  TrafficTrace trace;
  for (std::uint32_t i = 0; i < 40; ++i) {
    DnsRecord r;
    r.client = 1;
    r.qname = "cdn.example";
    r.ttl = 3600;
    r.resolved = 0x08000000u + i;
    trace.dns.push_back(r);
  }
  trace.hosts = {1};
  EXPECT_TRUE(fluxed_domains(trace, {}).empty());
}

// --- flow/beacon detector -----------------------------------------------

TEST(FlowDetector, CatchesCentralizedBeacons) {
  Rng rng(41);
  const TrafficTrace trace = centralized_http_traffic(small_config(), rng);
  const DetectionResult r = detect_beacons(trace);
  EXPECT_GE(r.true_positive_rate(trace), 0.9);
  EXPECT_LE(r.false_positive_rate(trace), 0.05);
}

TEST(FlowDetector, QuietOnBenign) {
  Rng rng(42);
  const TrafficTrace trace = benign_background(small_config(), rng);
  const DetectionResult r = detect_beacons(trace);
  EXPECT_LE(r.false_positive_rate(trace), 0.05);
}

TEST(FlowDetector, CannotSeparateOnionBotsFromTorUsers) {
  // Whatever it flags among OnionBots, it flags a comparable share of
  // benign Tor users: the feature no longer separates (paper §VI).
  Rng rng(43);
  TrafficConfig cfg = small_config();
  cfg.benign_tor = 20;
  const TrafficTrace trace = onionbot_traffic(cfg, rng);
  const DetectionResult r = detect_beacons(trace);
  const double tpr = r.true_positive_rate(trace);
  const double fpr = r.false_positive_rate(trace);
  // Either it is blind, or it misfires on benign Tor users at a similar
  // rate — precision collapses either way.
  if (tpr > 0.10) {
    EXPECT_GT(fpr, 0.0)
        << "flagging bots without flagging Tor users would break the "
           "paper's indistinguishability claim";
  } else {
    SUCCEED();
  }
}

TEST(FlowDetector, ChannelFeaturesComputeCv) {
  TrafficTrace trace;
  // Perfectly regular beacon: constant size, constant gap.
  for (int i = 0; i < 20; ++i) {
    FlowRecord f;
    f.src = 5;
    f.dst = 9;
    f.bytes = 100;
    f.at = static_cast<SimTime>(i) * kMinute;
    trace.flows.push_back(f);
  }
  ChannelPass pass;
  const auto& features = pass.run(trace.flows);
  ASSERT_EQ(features.size(), 1u);
  EXPECT_LT(features[0].size_cv, 1e-9);
  EXPECT_LT(features[0].gap_cv, 1e-9);
}

// --- P2P mesh detector ----------------------------------------------------

TEST(P2pDetector, CatchesPlaintextP2pMesh) {
  Rng rng(51);
  const TrafficTrace trace = p2p_plain_traffic(small_config(), rng);
  const DetectionResult r = detect_p2p(trace);
  EXPECT_GE(r.true_positive_rate(trace), 0.8);
  EXPECT_LE(r.false_positive_rate(trace), 0.02);
}

TEST(P2pDetector, QuietOnBenign) {
  Rng rng(52);
  const TrafficTrace trace = benign_background(small_config(), rng);
  const DetectionResult r = detect_p2p(trace);
  EXPECT_TRUE(r.flagged.empty())
      << "browsing is star-shaped; no monitored-host mesh exists";
}

TEST(P2pDetector, BlindToOnionBots) {
  // The paper's structural evasion: bot<->bot edges exist only inside
  // Tor; the observable graph has no monitored-host mesh at all.
  Rng rng(53);
  const TrafficTrace trace = onionbot_traffic(small_config(), rng);
  const DetectionResult r = detect_p2p(trace);
  EXPECT_DOUBLE_EQ(r.true_positive_rate(trace), 0.0);
}

// --- the blunt instrument --------------------------------------------------

TEST(TorFlagger, FlagsEveryOnionBot) {
  Rng rng(61);
  const TrafficTrace trace = onionbot_traffic(small_config(), rng);
  const DetectionResult r = detect_tor_users(trace);
  EXPECT_GE(r.true_positive_rate(trace), 0.99);
}

TEST(TorFlagger, AlsoFlagsEveryLegitimateTorUser) {
  Rng rng(62);
  TrafficConfig cfg = small_config();
  cfg.benign_tor = 20;
  const TrafficTrace trace = onionbot_traffic(cfg, rng);
  const DetectionResult r = detect_tor_users(trace);
  // All benign Tor users are false-flagged: the measure is equivalent
  // to blocking Tor for everyone (paper conclusion).
  const double fpr = r.false_positive_rate(trace);
  const double benign_tor_share =
      static_cast<double>(cfg.benign_tor) /
      static_cast<double>(cfg.benign_web + cfg.benign_tor);
  EXPECT_GE(fpr, benign_tor_share * 0.99);
}

}  // namespace
}  // namespace onion::detection
