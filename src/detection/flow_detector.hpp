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
// The rule has one owner, FlowScorer: the one-pass form RocSweep and
// ReplayGrid score from. detect_beacons and detect_tor_users are one
// FlowScorer pass at a single threshold, for the examples and benches.
// The lockstep tests (tests/flow_scorer_test.cpp) check it against an
// independent map-based scorer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "detection/telemetry.hpp"

namespace onion::detection {

/// Coefficient of variation (stddev/mean, sample variance); 0 for
/// degenerate input (< 2 samples or non-positive mean). The samples are
/// summed in the order given, so ChannelPass and the tests' map-based
/// reference scorer compute bit-identical CVs — the lockstep tests
/// assert exact flagged-set equality, not approximate.
double coefficient_of_variation(std::span<const double> xs);

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

/// The per-source feature pass: the features of every channel of one
/// source host's flows, which FlowScorer applies its thresholds to.
/// Channels are numbered through a hash table and their flows gathered
/// with one counting sort, in O(flows); buffers are reused across calls.
class ChannelPass {
 public:
  /// `flows` are one source's flows in arrival order. Returns one entry
  /// per dst, in order of first arrival: the size CV over the flows in
  /// arrival order and the gap CV over the sorted timestamps. Valid
  /// until the next call.
  const std::vector<ChannelFeatures>& run(std::span<const FlowRecord> flows);

 private:
  std::vector<std::uint32_t> table_, channel_;
  std::vector<std::size_t> next_;
  std::vector<double> sizes_, times_, gaps_;
  std::vector<ChannelFeatures> out_;
};

/// Flags sources owning at least one beacon-like channel: one FlowScorer
/// pass over the trace at this one threshold.
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
/// trace order — one stable index sort by source, no per-host lists.
/// Returns the number of flows fed.
std::uint64_t feed_trace(const TrafficTrace& trace, FlowSink& sink);

/// Every threshold the one-pass scorer evaluates.
struct FlowScorerConfig {
  /// Flow-beacon operating points (min_flows/size_cv/gap_cv each).
  std::vector<FlowDetectorConfig> beacon_thresholds;
  /// Tor-flagger min-flow thresholds.
  std::vector<std::size_t> tor_min_flows;
};

/// One-pass streaming scorer: buffers the flows of hosts not yet
/// finalized, and collapses each host to verdicts at its on_host_done.
/// Call finish() after the stream ends (it finalizes any hosts fed
/// without an on_host_done, so raw ungrouped traces work too; an early
/// on_host_done(h) finalizes only h); flagged sets are valid afterwards,
/// and *equal* to the batch detectors' fed the same flows.
///
/// Cost: each flow is one record appended to a buffer of open flows. At
/// on_host_done the host's flows (a stable partition, which moves
/// nothing on a grouped stream) go through one ChannelPass, and each
/// channel's features are checked against every threshold. Every
/// buffer is reused across hosts: once they have grown to the largest
/// host, scoring allocates nothing per flow.
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
  /// Scores one host's flows (arrival order) against every threshold.
  void score_host(std::span<const FlowRecord> flows);

  FlowScorerConfig config_;
  std::vector<HostId> relays_;  // ascending, unique
  /// Open (not yet finalized) hosts' flows, in arrival order.
  std::vector<FlowRecord> open_;
  ChannelPass pass_;
  std::uint64_t flows_ = 0;
  bool finished_ = false;
  std::vector<std::vector<HostId>> flagged_;
};

}  // namespace onion::detection
