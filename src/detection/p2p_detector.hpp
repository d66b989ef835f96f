// P2P botnet detection from the communication graph (paper §II cites
// BotGrep, Zhang et al., Coskun et al.): build the who-talks-to-whom
// graph from flow records, discard traffic to well-known server
// infrastructure, and look for hosts embedded in a mesh — monitored
// hosts exchanging flows with several *other monitored hosts* that
// themselves interconnect (mutual-contacts structure). Client-server
// traffic is star-shaped and never forms such meshes.
//
// The OnionBot evasion is structural: bot-to-bot links exist only as
// Tor circuits, so the observable graph contains exactly (bot -> guard
// relay) stars — the same stars benign Tor clients produce. The mesh the
// detector needs is invisible end to end.
#pragma once

#include "detection/telemetry.hpp"

namespace onion::detection {

struct P2pDetectorConfig {
  /// Minimum distinct monitored peers a host must exchange flows with.
  std::size_t min_peer_degree = 3;
  /// Minimum fraction of a host's peers that also talk to each other
  /// (local clustering over the monitored-host graph).
  double min_peer_interconnection = 0.05;
  /// Flows below this many bytes in both directions total are ignored
  /// (port scans, stray datagrams).
  std::size_t min_pair_bytes = 50;
};

/// Per-host mesh features, exposed for tests and the bench printout.
struct MeshFeatures {
  HostId host = 0;
  /// Distinct monitored hosts this host exchanges flows with.
  std::size_t peer_degree = 0;
  /// Fraction of peer pairs that are themselves connected.
  double peer_interconnection = 0.0;
};

/// Features over the monitored-host communication graph. Flows to hosts
/// outside `trace.hosts` (public servers, Tor relays) are excluded, as
/// the published systems do — servers talk to everyone and would drown
/// the signal. Hosts come out in ascending order.
std::vector<MeshFeatures> mesh_features(const TrafficTrace& trace,
                                        std::size_t min_pair_bytes);

/// The threshold rule: flags hosts sitting inside a peer mesh,
/// ascending. `features` must come from mesh_features at
/// config.min_pair_bytes; the other thresholds only filter them, so one
/// feature pass serves every degree × interconnection point.
DetectionResult flag_p2p(const std::vector<MeshFeatures>& features,
                         const P2pDetectorConfig& config);

/// flag_p2p(mesh_features(trace, config.min_pair_bytes), config).
DetectionResult detect_p2p(const TrafficTrace& trace,
                           const P2pDetectorConfig& config = {});

}  // namespace onion::detection
