#include "detection/replay.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"

namespace onion::detection {

namespace {

using scenario::CampaignEvent;
using scenario::TraceEventKind;
using scenario::TraceSource;

}  // namespace

ReplayComposition compose_replay(const TraceSource& campaign,
                                 const ReplayConfig& config) {
  ONION_EXPECTS(campaign.began());
  const SimDuration window =
      config.window > 0 ? config.window : campaign.horizon();
  ONION_EXPECTS(window > 0);

  ReplayComposition c{{}, {}, {}, Rng(config.seed)};
  ReplayResult& out = c.result;
  TrafficTrace& trace = out.trace;
  Rng& rng = c.rng;
  HostId next = config.first_host;

  // Benign background first (and its Tor relay registry, shared by every
  // Tor-speaking population — defenders see one consensus).
  TrafficConfig bg;
  bg.window = window;
  bg.benign_web = config.benign_web;
  bg.benign_tor = config.benign_tor;
  bg.tor_relays = config.tor_relays;
  bg.tor_mean_gap = config.benign_tor_mean_gap;
  BenignPopulation benign = emit_benign(trace, bg, next, rng);
  out.benign_web_hosts = std::move(benign.web_hosts);
  out.benign_tor_users = std::move(benign.tor_users);
  c.relays = std::move(benign.relays);

  // Co-resident legacy families: present for the whole window, exactly
  // the populations the paper's evolution story leaves behind.
  if (config.centralized_bots > 0)
    out.centralized_bots = emit_centralized_bots(
        trace, config.centralized_bots, window, next, rng);
  if (config.dga_bots > 0)
    out.dga_bots = emit_dga_bots(trace, config.dga_bots, window, next, rng);
  if (config.fastflux_bots > 0)
    out.fastflux_bots =
        emit_fastflux_bots(trace, config.fastflux_bots, window, next, rng);
  if (config.p2p_bots > 0)
    out.p2p_bots = emit_p2p_bots(trace, config.p2p_bots, window, next, rng);

  if (config.max_onion_bots == 0) return c;  // legacy/benign-only rows

  std::vector<scenario::BotLifetime> lifetimes = campaign.lifetimes();
  if (lifetimes.size() > config.max_onion_bots)
    lifetimes.resize(config.max_onion_bots);  // oldest bots first
  for (const scenario::BotLifetime& life : lifetimes) {
    if (life.birth >= window) continue;  // never observable: no host
    c.bots.push_back({life.node, 0, std::min<SimTime>(life.birth, window),
                      std::min<SimTime>(life.death, window)});
  }
  if (c.bots.empty()) return c;

  if (c.relays.empty()) {
    ONION_EXPECTS(config.tor_relays > 0);
    c.relays = register_tor_relays(trace, config.tor_relays, next);
  }
  out.onion_bots.reserve(c.bots.size());
  for (ReplayBot& b : c.bots) {
    b.host = next++;
    out.onion_bots.push_back(b.host);
  }
  return c;
}

void for_each_event_cell(
    const TraceSource& campaign, const std::vector<ReplayBot>& bots,
    const std::function<void(std::size_t bot, SimTime at)>& cell) {
  if (bots.empty()) return;
  const auto cell_at = [&](std::uint64_t word, SimTime at) {
    const auto node = static_cast<graph::NodeId>(word);
    const auto it = std::lower_bound(
        bots.begin(), bots.end(), node,
        [](const ReplayBot& b, graph::NodeId n) { return b.node < n; });
    if (it == bots.end() || it->node != node) return;  // subsampled out
    if (at < it->birth || at >= it->death) return;
    cell(static_cast<std::size_t>(it - bots.begin()), at);
  };
  graph::NodeId soap_captured = graph::kInvalidNode;
  campaign.for_each_event([&](const CampaignEvent& e) {
    switch (e.kind) {
      case TraceEventKind::Peering:
      case TraceEventKind::HealPeering:
        // Bootstrap peering and charged DDSR healing are both real peer
        // traffic: the request and its answer each ride Tor circuits.
        cell_at(e.a, e.at);
        cell_at(e.b, e.at);
        break;
      case TraceEventKind::SoapCapture:
        soap_captured = static_cast<graph::NodeId>(e.a);
        break;
      case TraceEventKind::SoapRound:
        if (soap_captured != graph::kInvalidNode)
          cell_at(soap_captured, e.at);
        break;
      case TraceEventKind::Join:
      case TraceEventKind::Leave:
      case TraceEventKind::Takedown:
        // No emission: the lifetime clamp already went dark on time.
      case TraceEventKind::WaveStart:       // attacker-side bookkeeping:
      case TraceEventKind::AdaptiveRefresh: // no bot emits anything
        break;
    }
  });
}

ReplayResult replay_trace(const TraceSource& campaign,
                          const ReplayConfig& config) {
  ReplayComposition c = compose_replay(campaign, config);
  TrafficTrace& trace = c.result.trace;

  // Steady-state emission: each bot browses (its human owner is still at
  // the keyboard) and heartbeats into its guards while alive.
  std::vector<std::array<HostId, 3>> guards;
  guards.reserve(c.bots.size());
  for (const ReplayBot& b : c.bots) {
    trace.hosts.push_back(b.host);
    trace.infected.push_back(b.host);
    guards.push_back(pick_guards(c.relays, c.rng));
    emit_browsing(trace, b.host, b.birth, b.death, c.rng);
    emit_tor_client(trace, b.host, guards.back(), b.birth, b.death,
                    config.onion_mean_gap, c.rng);
  }

  // Event-driven emission, drawn in global event order.
  for_each_event_cell(campaign, c.bots, [&](std::size_t i, SimTime at) {
    trace.flows.push_back(tor_cell_flow(
        c.bots[i].host, guards[i][c.rng.uniform(guards[i].size())], at,
        c.rng));
  });
  return std::move(c.result);
}

GroundTruth replay_ground_truth(const ReplayResult& result) {
  GroundTruth truth;
  const auto add = [&truth](const char* name,
                            const std::vector<HostId>& hosts) {
    if (!hosts.empty())
      truth.populations.push_back(GroundTruth::Population{name, hosts});
  };
  add("onion", result.onion_bots);
  add("centralized", result.centralized_bots);
  add("dga", result.dga_bots);
  add("fastflux", result.fastflux_bots);
  add("p2p", result.p2p_bots);
  add("benign_web", result.benign_web_hosts);
  add("benign_tor", result.benign_tor_users);
  return truth;
}

double flagged_fraction(const DetectionResult& result,
                        const std::vector<HostId>& population) {
  if (population.empty()) return 0.0;
  const std::unordered_set<HostId> flagged(result.flagged.begin(),
                                           result.flagged.end());
  std::size_t hits = 0;
  for (const HostId h : population)
    if (flagged.count(h) > 0) ++hits;
  return static_cast<double>(hits) / static_cast<double>(population.size());
}

}  // namespace onion::detection
