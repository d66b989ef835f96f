#include "detection/replay_grid.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "crypto/sha256.hpp"
#include "detection/traffic.hpp"

namespace onion::detection {

namespace {

using scenario::TraceSource;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Streams one host's flows from a scratch trace. Grouping is by
/// ascending source id (std::map), so the feed order is deterministic
/// regardless of emission interleaving.
void feed_grouped(const TrafficTrace& scratch, FlowSink& sink,
                  std::uint64_t& flows) {
  std::map<HostId, std::vector<const FlowRecord*>> by_src;
  for (const FlowRecord& f : scratch.flows) by_src[f.src].push_back(&f);
  for (const auto& [src, records] : by_src) {
    for (const FlowRecord* f : records) sink.on_flow(*f);
    flows += records.size();
    sink.on_host_done(src);
  }
}

}  // namespace

StreamPopulations replay_trace_streaming(const TraceSource& campaign,
                                         const ReplayConfig& config,
                                         FlowSink& sink) {
  // The background is config-bounded, so it composes into a scratch
  // trace and streams out grouped by host; what must never be
  // materialized is the campaign population's capture below.
  ReplayComposition c = compose_replay(campaign, config);
  StreamPopulations out;
  sink.on_relays(c.result.trace.known_tor_relays);
  feed_grouped(c.result.trace, sink, out.flows);

  // Per-bot cell times up front: bounded by campaign activity, never by
  // the churn-dominated event count.
  std::vector<std::vector<SimTime>> cell_times(c.bots.size());
  for_each_event_cell(campaign, c.bots, [&](std::size_t i, SimTime at) {
    cell_times[i].push_back(at);
  });

  // One bot at a time: synthesize, feed, release. This is the O(window)
  // loop, and it draws each bot's event cells right after its steady
  // state — per-bot order, where replay_trace draws them in global
  // event order.
  TrafficTrace bot_scratch;
  for (std::size_t i = 0; i < c.bots.size(); ++i) {
    const ReplayBot& b = c.bots[i];
    const std::array<HostId, 3> guards = pick_guards(c.relays, c.rng);
    bot_scratch.flows.clear();
    bot_scratch.dns.clear();
    emit_browsing(bot_scratch, b.host, b.birth, b.death, c.rng);
    emit_tor_client(bot_scratch, b.host, guards, b.birth, b.death,
                    config.onion_mean_gap, c.rng);
    for (const SimTime at : cell_times[i])
      bot_scratch.flows.push_back(tor_cell_flow(
          b.host, guards[c.rng.uniform(guards.size())], at, c.rng));
    std::vector<SimTime>().swap(cell_times[i]);
    for (const FlowRecord& f : bot_scratch.flows) sink.on_flow(f);
    out.flows += bot_scratch.flows.size();
    sink.on_host_done(b.host);
  }

  out.truth = replay_ground_truth(c.result);
  out.known_tor_relays = c.result.trace.known_tor_relays;
  for (const GroundTruth::Population& pop : out.truth.populations) {
    const bool is_benign =
        pop.name == "benign_web" || pop.name == "benign_tor";
    auto& dst = is_benign ? out.monitored : out.infected;
    dst.insert(dst.end(), pop.hosts.begin(), pop.hosts.end());
  }
  std::sort(out.infected.begin(), out.infected.end());
  out.monitored.insert(out.monitored.end(), out.infected.begin(),
                       out.infected.end());
  std::sort(out.monitored.begin(), out.monitored.end());
  return out;
}

void feed_trace(const TrafficTrace& trace, FlowSink& sink) {
  sink.on_relays(trace.known_tor_relays);
  std::uint64_t flows = 0;
  feed_grouped(trace, sink, flows);
}

FlowScorer::FlowScorer(FlowScorerConfig config)
    : config_(std::move(config)),
      beacon_sets_(config_.beacon_thresholds.size()),
      tor_sets_(config_.tor_min_flows.size()) {}

void FlowScorer::on_relays(const std::vector<HostId>& relays) {
  relays_ = std::set<HostId>(relays.begin(), relays.end());
}

void FlowScorer::on_flow(const FlowRecord& f) {
  ONION_EXPECTS(!finished_);
  Series& s = channels_[{f.src, f.dst}];
  s.sizes.push_back(static_cast<double>(f.bytes));
  s.times.push_back(static_cast<double>(f.at));
  ++flows_;
}

void FlowScorer::on_host_done(HostId host) { finalize_host(host); }

void FlowScorer::finalize_host(HostId host) {
  std::size_t tor_flows = 0;
  auto it = channels_.lower_bound({host, 0});
  while (it != channels_.end() && it->first.first == host) {
    Series& s = it->second;
    const std::size_t count = s.sizes.size();
    // Same arithmetic as channel_features: sizes CV as emitted, gaps CV
    // over the sorted timestamps — bitwise-equal to the batch detector.
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
        beacon_sets_[k].insert(host);
    }
    if (relays_.count(it->first.second) > 0) tor_flows += count;
    it = channels_.erase(it);
  }
  for (std::size_t k = 0; k < config_.tor_min_flows.size(); ++k)
    if (tor_flows >= config_.tor_min_flows[k] && tor_flows > 0)
      tor_sets_[k].insert(host);
}

void FlowScorer::finish() {
  ONION_EXPECTS(!finished_);
  while (!channels_.empty())
    finalize_host(channels_.begin()->first.first);
  beacon_flagged_.reserve(beacon_sets_.size());
  for (const std::set<HostId>& s : beacon_sets_)
    beacon_flagged_.emplace_back(s.begin(), s.end());
  tor_flagged_.reserve(tor_sets_.size());
  for (const std::set<HostId>& s : tor_sets_)
    tor_flagged_.emplace_back(s.begin(), s.end());
  finished_ = true;
}

const std::vector<std::vector<HostId>>& FlowScorer::beacon_flagged() const {
  ONION_EXPECTS(finished_);
  return beacon_flagged_;
}

const std::vector<std::vector<HostId>>& FlowScorer::tor_flagged() const {
  ONION_EXPECTS(finished_);
  return tor_flagged_;
}

Bytes serialize(const ReplayGridPoint& p) {
  Bytes out;
  out.reserve(8 * 10 + p.detector.size() + p.params.size());
  put_u64(out, p.campaign);
  put_u64(out, p.replay_seed);
  put_string(out, p.detector);
  put_string(out, p.params);
  put_u64(out, p.flows);
  put_u64(out, p.flagged);
  put_u64(out, p.true_positives);
  put_u64(out, p.false_positives);
  put_f64(out, p.tpr);
  put_f64(out, p.fpr);
  put_u64(out, p.families.size());
  for (const RocFamilyCount& f : p.families) {
    put_string(out, f.family);
    put_u64(out, f.flagged);
    put_u64(out, f.population);
  }
  return out;
}

void ReplayGridReport::write_csv(std::FILE* out) const {
  std::fprintf(out,
               "campaign,replay_seed,detector,params,flows,flagged,"
               "true_positives,false_positives,tpr,fpr,families\n");
  for (const ReplayGridPoint& p : points) {
    std::fprintf(out, "%zu,%llu,%s,\"%s\",%llu,%zu,%zu,%zu,%.6f,%.6f,\"",
                 p.campaign, static_cast<unsigned long long>(p.replay_seed),
                 p.detector.c_str(), p.params.c_str(),
                 static_cast<unsigned long long>(p.flows), p.flagged,
                 p.true_positives, p.false_positives, p.tpr, p.fpr);
    for (std::size_t i = 0; i < p.families.size(); ++i)
      std::fprintf(out, "%s%s=%zu/%zu", i == 0 ? "" : ";",
                   p.families[i].family.c_str(), p.families[i].flagged,
                   p.families[i].population);
    std::fprintf(out, "\"\n");
  }
}

std::string combine_replay_points(
    const std::vector<ReplayGridPoint>& points) {
  crypto::Sha256 hasher;
  for (const ReplayGridPoint& p : points) hasher.update(serialize(p));
  const crypto::Sha256Digest digest = hasher.finalize();
  return to_hex(BytesView(digest.data(), digest.size()));
}

ReplayGrid::ReplayGrid(ReplayGridConfig config)
    : config_(std::move(config)) {}

std::size_t ReplayGrid::points_per_cell() const {
  return config_.flow_size_cv.size() * config_.flow_gap_cv.size() +
         config_.tor_min_flows.size();
}

ReplayGridCell ReplayGrid::run_cell(const TraceSource& campaign,
                                    std::uint64_t cell_index) const {
  const std::size_t seeds = config_.replay_seeds.size();
  ReplayGridCell cell;
  cell.cell_index = cell_index;
  cell.campaign = cell_index / seeds;
  cell.replay_seed = config_.replay_seeds[cell_index % seeds];
  const auto start = std::chrono::steady_clock::now();

  FlowScorerConfig scorer_config;
  for (const double size_cv : config_.flow_size_cv)
    for (const double gap_cv : config_.flow_gap_cv) {
      FlowDetectorConfig c;
      c.min_flows = config_.flow_min_flows;
      c.size_cv_threshold = size_cv;
      c.gap_cv_threshold = gap_cv;
      scorer_config.beacon_thresholds.push_back(c);
    }
  scorer_config.tor_min_flows = config_.tor_min_flows;

  ReplayConfig replay = config_.replay;
  replay.seed = cell.replay_seed;
  FlowScorer scorer(scorer_config);
  const StreamPopulations pops =
      replay_trace_streaming(campaign, replay, scorer);
  scorer.finish();

  const std::set<HostId> infected(pops.infected.begin(),
                                  pops.infected.end());
  const std::set<HostId> monitored(pops.monitored.begin(),
                                   pops.monitored.end());
  const std::size_t benign = pops.monitored.size() - pops.infected.size();
  const auto score = [&](std::string detector, std::string params,
                         const std::vector<HostId>& flagged) {
    ReplayGridPoint p;
    p.campaign = static_cast<std::size_t>(cell.campaign);
    p.replay_seed = cell.replay_seed;
    p.detector = std::move(detector);
    p.params = std::move(params);
    p.flows = pops.flows;
    p.flagged = flagged.size();
    for (const HostId h : flagged) {
      if (infected.count(h) > 0)
        ++p.true_positives;
      else if (monitored.count(h) > 0)
        ++p.false_positives;
    }
    p.tpr = infected.empty()
                ? 0.0
                : static_cast<double>(p.true_positives) /
                      static_cast<double>(infected.size());
    p.fpr = benign == 0 ? 0.0
                        : static_cast<double>(p.false_positives) /
                              static_cast<double>(benign);
    p.families.reserve(pops.truth.populations.size());
    for (const GroundTruth::Population& pop : pops.truth.populations) {
      RocFamilyCount f;
      f.family = pop.name;
      f.population = pop.hosts.size();
      // Both sides ascending: membership via binary search.
      for (const HostId h : pop.hosts)
        if (std::binary_search(flagged.begin(), flagged.end(), h))
          ++f.flagged;
      p.families.push_back(std::move(f));
    }
    return p;
  };

  cell.points.reserve(points_per_cell());
  for (std::size_t k = 0; k < scorer_config.beacon_thresholds.size(); ++k) {
    const FlowDetectorConfig& c = scorer_config.beacon_thresholds[k];
    cell.points.push_back(score("flow-beacon",
                                "size_cv=" + fmt(c.size_cv_threshold) +
                                    ",gap_cv=" + fmt(c.gap_cv_threshold),
                                scorer.beacon_flagged()[k]));
  }
  for (std::size_t k = 0; k < scorer_config.tor_min_flows.size(); ++k)
    cell.points.push_back(score(
        "tor-flagger",
        "min_flows=" + std::to_string(scorer_config.tor_min_flows[k]),
        scorer.tor_flagged()[k]));
  cell.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return cell;
}

ReplayGridReport ReplayGrid::run(
    const std::vector<const TraceSource*>& campaigns) const {
  ReplayGridReport report;
  const std::size_t ppc = points_per_cell();
  const std::size_t cells = cell_count(campaigns.size());
  report.points.resize(cells * ppc);
  const auto start = std::chrono::steady_clock::now();

  report.threads_used = parallel_for_index(
      cells, config_.threads, [&](std::size_t cell) {
        // Points land at the cell's grid slice, so the sharding cannot
        // leak into the report — and the process transport reruns the
        // identical run_cell, so both paths agree by construction.
        ReplayGridCell result = run_cell(
            *campaigns[cell / config_.replay_seeds.size()], cell);
        for (std::size_t k = 0; k < ppc; ++k)
          report.points[cell * ppc + k] = std::move(result.points[k]);
      });

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.fingerprint = combine_replay_points(report.points);
  return report;
}

ReplayGridReport ReplayGrid::run(const TraceSource& campaign) const {
  return run(std::vector<const TraceSource*>{&campaign});
}

}  // namespace onion::detection
