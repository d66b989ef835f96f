#include "detection/replay_grid.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/parallel.hpp"
#include "crypto/sha256.hpp"
#include "detection/traffic.hpp"

namespace onion::detection {

using scenario::TraceSource;

StreamPopulations replay_trace_streaming(const TraceSource& campaign,
                                         const ReplayConfig& config,
                                         FlowSink& sink) {
  // The background is config-bounded, so it composes into a scratch
  // trace and streams out grouped by host; what must never be
  // materialized is the campaign population's capture below.
  ReplayComposition c = compose_replay(campaign, config);
  StreamPopulations out;
  out.flows = feed_trace(c.result.trace, sink);

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
    : config_(std::move(config)),
      flow_grid_(config_.flow_size_cv, config_.flow_gap_cv,
                 config_.flow_min_flows, config_.tor_min_flows) {}

ReplayGridCell ReplayGrid::run_cell(const TraceSource& campaign,
                                    std::uint64_t cell_index) const {
  ReplayGridCell cell;
  cell.cell_index = cell_index;
  cell.campaign = cell_campaign(cell_index);
  cell.replay_seed = cell_seed(cell_index);
  const auto start = std::chrono::steady_clock::now();

  ReplayConfig replay = config_.replay;
  replay.seed = cell.replay_seed;
  FlowScorer scorer(flow_grid_.thresholds);
  StreamPopulations pops = replay_trace_streaming(campaign, replay, scorer);
  scorer.finish();

  const ScoringTruth truth(std::move(pops.infected),
                           std::move(pops.monitored));
  cell.points.reserve(points_per_cell());
  for (std::size_t k = 0; k < flow_grid_.cells.size(); ++k) {
    RocPoint s = score_point(flow_grid_.cells[k].detector,
                             flow_grid_.cells[k].params, scorer.flagged()[k],
                             truth, pops.truth);
    ReplayGridPoint p;
    p.campaign = static_cast<std::size_t>(cell.campaign);
    p.replay_seed = cell.replay_seed;
    p.detector = std::move(s.detector);
    p.params = std::move(s.params);
    p.flows = pops.flows;
    p.flagged = s.flagged;
    p.true_positives = s.true_positives;
    p.false_positives = s.false_positives;
    p.tpr = s.tpr;
    p.fpr = s.fpr;
    p.families = std::move(s.families);
    cell.points.push_back(std::move(p));
  }
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
        ReplayGridCell result = run_cell(*campaigns[cell_campaign(cell)], cell);
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
