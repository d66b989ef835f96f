#include "detection/flow_detector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "detection/tor_flagger.hpp"

namespace onion::detection {

double coefficient_of_variation(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  return std::sqrt(var) / mean;
}

const std::vector<ChannelFeatures>& ChannelPass::run(
    std::span<const FlowRecord> flows) {
  // Number the channels by first arrival through an open-addressing
  // table from dst to channel, at most half full.
  constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  const std::size_t mask = std::bit_ceil(2 * flows.size() + 1) - 1;
  table_.assign(mask + 1, kEmpty);
  channel_.resize(flows.size());
  out_.clear();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const HostId dst = flows[i].dst;
    std::size_t h = (dst * 0x9e3779b97f4a7c15ull >> 32) & mask;
    while (table_[h] != kEmpty && out_[table_[h]].dst != dst)
      h = (h + 1) & mask;
    if (table_[h] == kEmpty) {
      table_[h] = static_cast<std::uint32_t>(out_.size());
      out_.push_back({flows[i].src, dst, 0, 0.0, 0.0});
    }
    channel_[i] = table_[h];
    ++out_[channel_[i]].flows;
  }
  // A counting sort by channel: each channel's sizes and times land in
  // one run, in arrival order.
  next_.assign(1, 0);
  for (const ChannelFeatures& c : out_) next_.push_back(next_.back() + c.flows);
  sizes_.resize(flows.size());
  times_.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::size_t at = next_[channel_[i]]++;
    sizes_[at] = static_cast<double>(flows[i].bytes);
    times_[at] = static_cast<double>(flows[i].at);
  }
  // The scatter advanced next_[c] to the end of channel c's run.
  for (std::size_t c = 0, first = 0; c < out_.size(); first = next_[c++]) {
    const std::span<double> times(times_.data() + first, next_[c] - first);
    std::sort(times.begin(), times.end());
    gaps_.clear();
    for (std::size_t i = 1; i < times.size(); ++i)
      gaps_.push_back(times[i] - times[i - 1]);
    out_[c].size_cv = coefficient_of_variation(
        std::span<const double>(sizes_.data() + first, times.size()));
    out_[c].gap_cv = coefficient_of_variation(gaps_);
  }
  return out_;
}

DetectionResult detect_beacons(const TrafficTrace& trace,
                               const FlowDetectorConfig& config) {
  FlowScorer scorer({{config}, {}});
  feed_trace(trace, scorer);
  scorer.finish();
  return {scorer.flagged().front()};
}

DetectionResult detect_tor_users(const TrafficTrace& trace,
                                 std::size_t min_flows) {
  FlowScorer scorer({{}, {min_flows}});
  feed_trace(trace, scorer);
  scorer.finish();
  return {scorer.flagged().front()};
}

std::uint64_t feed_trace(const TrafficTrace& trace, FlowSink& sink) {
  sink.on_relays(trace.known_tor_relays);
  // Grouping is by ascending source id, so the feed order is
  // deterministic regardless of emission interleaving.
  ONION_EXPECTS(trace.flows.size() <= 0xffffffffu);
  std::vector<std::pair<HostId, std::uint32_t>> by_src(trace.flows.size());
  for (std::uint32_t i = 0; i < by_src.size(); ++i)
    by_src[i] = {trace.flows[i].src, i};
  std::stable_sort(
      by_src.begin(), by_src.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < by_src.size(); ++i) {
    sink.on_flow(trace.flows[by_src[i].second]);
    if (i + 1 == by_src.size() || by_src[i + 1].first != by_src[i].first)
      sink.on_host_done(by_src[i].first);
  }
  return trace.flows.size();
}

FlowScorer::FlowScorer(FlowScorerConfig config)
    : config_(std::move(config)),
      flagged_(config_.beacon_thresholds.size() +
               config_.tor_min_flows.size()) {}

void FlowScorer::on_relays(const std::vector<HostId>& relays) {
  relays_ = sorted_unique(relays);
}

void FlowScorer::on_flow(const FlowRecord& f) {
  ONION_EXPECTS(!finished_);
  open_.push_back(f);
  ++flows_;
}

void FlowScorer::on_host_done(HostId host) {
  // Moves `host`'s flows to the front, both parts in arrival order. A
  // grouped stream holds only `host`'s flows, so nothing moves.
  const auto end = std::stable_partition(
      open_.begin(), open_.end(),
      [&](const FlowRecord& f) { return f.src == host; });
  score_host({open_.begin(), end});
  open_.erase(open_.begin(), end);
}

void FlowScorer::score_host(std::span<const FlowRecord> flows) {
  std::size_t tor_flows = 0;
  for (const ChannelFeatures& f : pass_.run(flows)) {
    for (std::size_t k = 0; k < config_.beacon_thresholds.size(); ++k) {
      const FlowDetectorConfig& c = config_.beacon_thresholds[k];
      if (f.flows >= c.min_flows && f.size_cv < c.size_cv_threshold &&
          f.gap_cv < c.gap_cv_threshold)
        flagged_[k].push_back(f.src);
    }
    if (std::binary_search(relays_.begin(), relays_.end(), f.dst))
      tor_flows += f.flows;
  }
  const std::size_t beacons = config_.beacon_thresholds.size();
  for (std::size_t k = 0; k < config_.tor_min_flows.size(); ++k)
    if (tor_flows >= config_.tor_min_flows[k] && tor_flows > 0)
      flagged_[beacons + k].push_back(flows.front().src);
}

void FlowScorer::finish() {
  ONION_EXPECTS(!finished_);
  // Hosts fed without an on_host_done, ascending, each in arrival order.
  std::stable_sort(open_.begin(), open_.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.src < b.src;
                   });
  for (auto run = open_.begin(); run != open_.end();) {
    const auto end = std::find_if(run, open_.end(), [&](const FlowRecord& f) {
      return f.src != run->src;
    });
    score_host({run, end});
    run = end;
  }
  open_.clear();
  for (std::vector<HostId>& hosts : flagged_)
    hosts = sorted_unique(std::move(hosts));
  finished_ = true;
}

const std::vector<std::vector<HostId>>& FlowScorer::flagged() const {
  ONION_EXPECTS(finished_);
  return flagged_;
}

}  // namespace onion::detection
