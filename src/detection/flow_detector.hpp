// NetFlow-level C&C channel detection (paper §II cites DISCLOSURE and
// BotFinder): no payload inspection, only flow metadata. C&C beacons are
// machine-generated, so per-(src,dst) flow series show
//
//   1. near-constant flow sizes (a human's page loads vary by 100x), and
//   2. timer-driven inter-arrival regularity.
//
// Both are measured as coefficients of variation (stddev/mean); a pair
// whose flows are numerous, size-stable, and clock-regular is a beacon
// channel, and its source is flagged.
//
// Against OnionBots the features degrade by construction: every flow to
// a guard relay multiplexes heartbeats, NoN shares, rendezvous setup,
// and relayed third-party broadcast cells, with per-bot jitter on every
// timer. The residual weak regularity is shared by benign Tor clients
// (circuit maintenance is timer-driven too), so any threshold that flags
// the bots flags the legitimate Tor users with them — the paper's
// point that mitigation collapses into blocking Tor wholesale.
//
// Two forms of the rule live here: detect_beacons (with
// detect_tor_users) is the one-threshold batch form that examples and
// benches call and the differential tests treat as the reference, and
// FlowScorer is the one-pass form RocSweep and ReplayGrid score from.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "detection/telemetry.hpp"

namespace onion::detection {

/// Coefficient of variation (stddev/mean, sample variance); 0 for
/// degenerate input (< 2 samples or non-positive mean). Shared by the
/// batch detector and FlowScorer so both compute CVs with the *same
/// arithmetic* — the differential tests assert exact flagged-set
/// equality, not approximate.
double coefficient_of_variation(const std::vector<double>& xs);

struct FlowDetectorConfig {
  /// Minimum flows on a (src,dst) pair before judging it.
  std::size_t min_flows = 12;
  /// Coefficient of variation of flow sizes below which sizes count as
  /// machine-constant.
  double size_cv_threshold = 0.25;
  /// Coefficient of variation of inter-arrival gaps below which timing
  /// counts as timer-driven.
  double gap_cv_threshold = 0.45;
};

/// Per-channel features, exposed for tests and the bench printout.
struct ChannelFeatures {
  HostId src = 0;
  HostId dst = 0;
  std::size_t flows = 0;
  double size_cv = 0.0;
  double gap_cv = 0.0;
};

/// Features for every (src,dst) pair meeting the minimum flow count.
std::vector<ChannelFeatures> channel_features(const TrafficTrace& trace,
                                              std::size_t min_flows);

/// Flags sources owning at least one beacon-like channel.
DetectionResult detect_beacons(const TrafficTrace& trace,
                               const FlowDetectorConfig& config = {});

/// Receives a streamed capture. Flows arrive grouped by source host:
/// all of a host's flows, then on_host_done(host) — after which no more
/// flows for that host may arrive. on_relays announces the public Tor
/// relay registry before any flow.
class FlowSink {
 public:
  virtual ~FlowSink() = default;
  virtual void on_relays(const std::vector<HostId>& relays) = 0;
  virtual void on_flow(const FlowRecord& f) = 0;
  virtual void on_host_done(HostId host) = 0;
};

/// Feeds an already-materialized trace into a sink: the relay registry,
/// then the flows grouped by source host (ascending), each host's in
/// trace order. Returns the number of flows fed.
std::uint64_t feed_trace(const TrafficTrace& trace, FlowSink& sink);

/// Every threshold the one-pass scorer evaluates.
struct FlowScorerConfig {
  /// Flow-beacon operating points (min_flows/size_cv/gap_cv each).
  std::vector<FlowDetectorConfig> beacon_thresholds;
  /// Tor-flagger min-flow thresholds.
  std::vector<std::size_t> tor_min_flows;
};

/// One-pass streaming scorer: buffers per-channel size/time series only
/// for hosts not yet finalized, and collapses each host to verdicts at
/// its on_host_done. Call finish() after the stream ends (it finalizes
/// any hosts fed without an on_host_done, so raw ungrouped traces work
/// too); flagged sets are valid afterwards, and *equal* to the batch
/// detectors' fed the same flows.
class FlowScorer final : public FlowSink {
 public:
  explicit FlowScorer(FlowScorerConfig config);

  void on_relays(const std::vector<HostId>& relays) override;
  void on_flow(const FlowRecord& f) override;
  void on_host_done(HostId host) override;
  void finish();

  std::uint64_t flows_scored() const { return flows_; }
  /// Flagged hosts per threshold, ascending: one list per beacon
  /// threshold, then one per tor min-flows threshold, in config order.
  const std::vector<std::vector<HostId>>& flagged() const;

 private:
  struct Series {
    std::vector<double> sizes;
    std::vector<double> times;
  };
  void finalize_host(HostId host);

  FlowScorerConfig config_;
  std::set<HostId> relays_;
  /// Open (not yet finalized) hosts' channels, keyed (src, dst).
  std::map<std::pair<HostId, HostId>, Series> channels_;
  std::uint64_t flows_ = 0;
  bool finished_ = false;
  std::vector<std::vector<HostId>> flagged_;
};

}  // namespace onion::detection
