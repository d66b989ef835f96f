#include "detection/flow_detector.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/check.hpp"

namespace onion::detection {

double coefficient_of_variation(const std::vector<double>& xs) {
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

std::vector<ChannelFeatures> channel_features(const TrafficTrace& trace,
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

DetectionResult detect_beacons(const TrafficTrace& trace,
                               const FlowDetectorConfig& config) {
  DetectionResult result;
  std::set<HostId> flagged;
  for (const ChannelFeatures& f :
       channel_features(trace, config.min_flows)) {
    if (f.size_cv < config.size_cv_threshold &&
        f.gap_cv < config.gap_cv_threshold)
      flagged.insert(f.src);
  }
  result.flagged.assign(flagged.begin(), flagged.end());
  return result;
}

std::uint64_t feed_trace(const TrafficTrace& trace, FlowSink& sink) {
  sink.on_relays(trace.known_tor_relays);
  // Grouping is by ascending source id (std::map), so the feed order is
  // deterministic regardless of emission interleaving.
  std::map<HostId, std::vector<const FlowRecord*>> by_src;
  for (const FlowRecord& f : trace.flows) by_src[f.src].push_back(&f);
  for (const auto& [src, records] : by_src) {
    for (const FlowRecord* f : records) sink.on_flow(*f);
    sink.on_host_done(src);
  }
  return trace.flows.size();
}

FlowScorer::FlowScorer(FlowScorerConfig config)
    : config_(std::move(config)),
      flagged_(config_.beacon_thresholds.size() +
               config_.tor_min_flows.size()) {}

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

void FlowScorer::finish() {
  ONION_EXPECTS(!finished_);
  while (!channels_.empty())
    finalize_host(channels_.begin()->first.first);
  for (std::vector<HostId>& hosts : flagged_) {
    std::sort(hosts.begin(), hosts.end());
    hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  }
  finished_ = true;
}

const std::vector<std::vector<HostId>>& FlowScorer::flagged() const {
  ONION_EXPECTS(finished_);
  return flagged_;
}

}  // namespace onion::detection
