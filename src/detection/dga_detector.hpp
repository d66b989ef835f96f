// DGA detection from resolver logs (paper §II cites Antonakakis et al.,
// Yadav et al.): infected hosts issue bursts of algorithmically generated
// lookups, almost all of which fail. Two per-host features carry nearly
// all of the published signal:
//
//   1. NXDOMAIN ratio — generated names are mostly unregistered;
//   2. mean character entropy of failed query names — generated labels
//      are uniform-random-ish, while human names reuse a small alphabet
//      of syllables.
//
// A host is flagged when both exceed their thresholds with a minimum
// query volume. OnionBots never appear here at all: .onion resolution
// happens inside Tor and produces no resolver traffic — the detector's
// feature vector for them is empty.
#pragma once

#include "detection/telemetry.hpp"

namespace onion::detection {

/// Tunable thresholds; defaults calibrated on the synthetic workloads
/// (see detection_test for the calibration sweep).
struct DgaDetectorConfig {
  /// Minimum DNS queries before a host is judged at all.
  std::size_t min_queries = 20;
  /// NXDOMAIN fraction above which a host looks DGA-driven.
  double nxdomain_ratio_threshold = 0.35;
  /// Mean per-name character entropy (bits/char) of *failed* lookups.
  double entropy_threshold = 3.0;
};

/// Per-host feature vector, exposed for tests and the bench printout.
struct DgaFeatures {
  HostId host = 0;
  std::size_t queries = 0;
  double nxdomain_ratio = 0.0;
  double failed_name_entropy = 0.0;
};

/// Shannon entropy (bits/char) of a DNS label, label part only (the
/// public-suffix part carries no signal and would dilute it).
double name_entropy(const std::string& qname);

/// Computes features for every host with at least one query, in
/// ascending host order.
std::vector<DgaFeatures> dga_features(const TrafficTrace& trace);

/// The threshold rule: flags hosts per the config thresholds, ascending.
/// One feature pass serves every threshold a sweep evaluates.
DetectionResult flag_dga(const std::vector<DgaFeatures>& features,
                         const DgaDetectorConfig& config);

/// flag_dga(dga_features(trace), config).
DetectionResult detect_dga(const TrafficTrace& trace,
                           const DgaDetectorConfig& config = {});

}  // namespace onion::detection
