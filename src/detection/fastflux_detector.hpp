// Fast-flux detection from resolver logs (paper §II; the Honeynet
// Project's "Know Your Enemy: Fast-Flux Service Networks"). The
// published fingerprint is per-*domain*, not per-host: a fluxed name
// accumulates an abnormal number of distinct A records at abnormally
// short TTLs. Hosts are flagged for contacting a fluxed domain.
//
// OnionBots never trip this either — there is no domain to flux; the
// rendezvous role fast-flux plays is subsumed by Tor hidden-service
// descriptors, which this detector cannot see.
#pragma once

#include <string>

#include "detection/telemetry.hpp"

namespace onion::detection {

struct FluxDetectorConfig {
  /// Distinct resolved addresses a single name must exceed.
  std::size_t distinct_ips_threshold = 10;
  /// Mean answer TTL (seconds) a fluxed name stays under.
  double ttl_threshold = 600.0;
  /// Minimum answered queries before judging a domain.
  std::size_t min_answers = 10;
};

/// Per-domain features, exposed for tests and the bench printout.
struct FluxFeatures {
  std::string qname;
  std::size_t answers = 0;
  std::size_t distinct_ips = 0;
  double mean_ttl = 0.0;
  /// Hosts that got an answer for this name: ascending, unique.
  std::vector<HostId> clients;
};

/// Computes features for every name with at least one answered query,
/// in ascending name order.
std::vector<FluxFeatures> flux_features(const TrafficTrace& trace);

/// The per-name rule: enough answers, more distinct addresses than the
/// threshold, and a mean TTL under it.
bool is_fluxed(const FluxFeatures& f, const FluxDetectorConfig& config);

/// The threshold rule: flags every host that got an answer for a fluxed
/// name (the union of those names' clients), ascending. One feature pass
/// serves every threshold a sweep evaluates, with no second DNS scan.
DetectionResult flag_fastflux(const std::vector<FluxFeatures>& features,
                              const FluxDetectorConfig& config);

/// flag_fastflux(flux_features(trace), config).
DetectionResult detect_fastflux(const TrafficTrace& trace,
                                const FluxDetectorConfig& config = {});

}  // namespace onion::detection
