#include "detection/p2p_detector.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace onion::detection {

std::vector<MeshFeatures> mesh_features(const TrafficTrace& trace,
                                        std::size_t min_pair_bytes) {
  const std::vector<HostId> monitored = sorted_unique(trace.hosts);
  const auto is_monitored = [&](HostId h) {
    return std::binary_search(monitored.begin(), monitored.end(), h);
  };

  // Undirected monitored-host graph with per-pair byte totals.
  std::map<std::pair<HostId, HostId>, std::size_t> pair_bytes;
  for (const FlowRecord& f : trace.flows)
    if (f.src != f.dst && is_monitored(f.src) && is_monitored(f.dst))
      pair_bytes[std::minmax(f.src, f.dst)] += f.bytes;

  std::map<HostId, std::set<HostId>> adjacency;
  for (const auto& [pair, bytes] : pair_bytes) {
    if (bytes < min_pair_bytes) continue;
    adjacency[pair.first].insert(pair.second);
    adjacency[pair.second].insert(pair.first);
  }

  // Peers are symmetric, so every peer has an adjacency entry. A host
  // with fewer than two peers has no pairs, and interconnection 0.
  std::vector<MeshFeatures> out;
  out.reserve(adjacency.size());
  for (const auto& [host, peers] : adjacency) {
    std::size_t connected_pairs = 0;
    std::size_t total_pairs = 0;
    for (auto it = peers.begin(); it != peers.end(); ++it)
      for (auto jt = std::next(it); jt != peers.end(); ++jt, ++total_pairs)
        connected_pairs += adjacency.at(*it).count(*jt);
    out.push_back({host, peers.size(),
                   total_pairs == 0
                       ? 0.0
                       : static_cast<double>(connected_pairs) /
                             static_cast<double>(total_pairs)});
  }
  return out;
}

DetectionResult flag_p2p(const std::vector<MeshFeatures>& features,
                         const P2pDetectorConfig& config) {
  DetectionResult result;
  for (const MeshFeatures& f : features) {
    if (f.peer_degree < config.min_peer_degree) continue;
    if (f.peer_interconnection < config.min_peer_interconnection) continue;
    result.flagged.push_back(f.host);
  }
  return result;
}

DetectionResult detect_p2p(const TrafficTrace& trace,
                           const P2pDetectorConfig& config) {
  return flag_p2p(mesh_features(trace, config.min_pair_bytes), config);
}

}  // namespace onion::detection
