// The pinned campaign specs behind tests/goldens/campaign_10k.txt and
// campaign_500k.txt, and the reader for those golden files. Every suite
// that runs a pinned campaign takes its spec from here, so a golden has
// exactly one spec and one digest copy.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "scenario/engine.hpp"

namespace onion::scenario {

/// The pinned 10k campaign: degree 10, one hour, 500/500 churn per hour
/// and a 600/h random-takedown wave in minutes [15, 45). The goldens run
/// it at seed 0xbe7c with a 5 min ("sparse_300s") and a 1 s
/// ("dense_1s") cadence.
inline ScenarioSpec pinned_10k_spec(std::uint64_t seed,
                                    SimDuration period) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.initial_size = 10'000;
  spec.degree = 10;
  spec.horizon = kHour;
  spec.churn.joins_per_hour = 500.0;
  spec.churn.leaves_per_hour = 500.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 15 * kMinute;
  takedown.stop = 45 * kMinute;
  takedown.takedowns_per_hour = 600.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = period;
  return spec;
}

/// The 500k scale tier ("leave_heavy_500k_1s"): ten minutes at a 1 s
/// cadence with 18000 leaves/h plus a 6000/h takedown wave in minutes
/// [2, 8), so every snapshot window contains deletions.
inline ScenarioSpec leave_heavy_500k_spec() {
  ScenarioSpec spec;
  spec.seed = 0x5ca1e;
  spec.initial_size = 500'000;
  spec.degree = 10;
  spec.horizon = 10 * kMinute;
  spec.churn.joins_per_hour = 600.0;
  spec.churn.leaves_per_hour = 18'000.0;
  AttackPhase takedown;
  takedown.kind = AttackKind::RandomTakedown;
  takedown.start = 2 * kMinute;
  takedown.stop = 8 * kMinute;
  takedown.takedowns_per_hour = 6'000.0;
  spec.attacks.push_back(takedown);
  spec.metrics.period = kSecond;
  return spec;
}

/// The digest on the `<key> <digest>` line of tests/goldens/<file>, or
/// "" (with a test failure) when the file or the key is missing.
inline std::string golden_digest(const std::string& file,
                                 const std::string& key) {
  const std::string path = std::string(ONION_GOLDENS_DIR) + "/" + file;
  std::ifstream in(path);
  std::string name;
  std::string digest;
  while (in >> name >> digest)
    if (name == key) return digest;
  ADD_FAILURE() << "no '" << key << "' line in " << path;
  return "";
}

}  // namespace onion::scenario
