// Threshold sweeps over a captured trace: grid-searches every detector
// family's tunables, scores each operating point against the trace's
// ground truth (TPR / FPR / precision), and fingerprints the whole
// sweep with a chained SHA-256 — the detection-side analogue of the
// scenario engine's snapshot-stream fingerprint, and the unit CI's
// golden-fingerprint guard diffs. Each detector family computes its
// features once per capture and scores all of its cells from them; the
// families shard across the same atomic-index thread pool campaign
// grids use (common/parallel.hpp), and every point lands at its grid
// index, so thread count never leaks into the CSV or the fingerprint.
//
// Run against a campaign-replayed trace (detection/replay.hpp) this
// reproduces the paper's Section II/VI argument as one sweep: every
// legacy family has operating points with high TPR at near-zero FPR,
// while for the OnionBot population no threshold of any detector
// separates bots from the benign Tor users sharing the trace.
//
// It also owns what RocSweep shares with the streamed ReplayGrid
// (detection/replay_grid.hpp): FlowGrid, the one enumeration of the
// flow-beacon and tor-flagger operating points that a single FlowScorer
// pass evaluates, and score_point, the one operating-point scorer.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "detection/dga_detector.hpp"
#include "detection/fastflux_detector.hpp"
#include "detection/flow_detector.hpp"
#include "detection/p2p_detector.hpp"
#include "detection/telemetry.hpp"

namespace onion::detection {

/// Threshold grids, one axis pair (or single axis) per detector family.
/// An empty axis drops the family from the sweep.
struct RocConfig {
  std::vector<double> dga_entropy = {2.0, 2.5, 3.0, 3.5};
  std::vector<double> dga_nxdomain = {0.15, 0.35, 0.55, 0.75};

  std::vector<std::size_t> flux_distinct_ips = {5, 10, 20, 40};
  std::vector<double> flux_ttl = {120.0, 300.0, 600.0, 1200.0};

  std::vector<double> flow_size_cv = {0.1, 0.25, 0.5, 0.75};
  std::vector<double> flow_gap_cv = {0.2, 0.45, 0.7, 1.0};

  std::vector<std::size_t> p2p_degree = {2, 3, 4, 6};
  std::vector<double> p2p_interconnection = {0.01, 0.05, 0.2, 0.5};

  std::vector<std::size_t> tor_min_flows = {1, 3, 10, 30};

  /// Worker pool for the sweep; 0 = hardware concurrency.
  std::size_t threads = 0;
};

/// One population's slice of an operating point: how many of its hosts
/// the detector flagged, out of how many were monitored. Populations
/// come from the replay's ground truth (detection/replay.hpp), so a
/// single sweep resolves per-family TPR (bot families) and per-source
/// FPR (benign web vs benign Tor) without re-running any detector.
struct RocFamilyCount {
  std::string family;  // "onion", "dga", "benign_tor", ...
  std::size_t flagged = 0;
  std::size_t population = 0;
};

/// Named host populations scored alongside the aggregate TPR/FPR. Order
/// is preserved into RocPoint::families (and so into the fingerprint);
/// an empty truth (the default) reproduces the legacy aggregate-only
/// sweep byte-for-byte.
struct GroundTruth {
  struct Population {
    std::string name;
    std::vector<HostId> hosts;
  };
  std::vector<Population> populations;
};

/// The flow-family operating points both sweeps score: flow-beacon
/// thresholds (size_cv × gap_cv, row-major, at one min_flows), then the
/// tor-flagger axis. An empty axis drops its family.
struct FlowGrid {
  struct Cell {
    std::string detector;  // "flow-beacon", "tor-flagger", ...
    std::string params;    // canonical "key=value,..." tuple
  };

  FlowGrid(const std::vector<double>& size_cv,
           const std::vector<double>& gap_cv, std::size_t min_flows,
           const std::vector<std::size_t>& tor_min_flows);

  /// FlowScorer::flagged() over these is index-parallel with `cells`.
  FlowScorerConfig thresholds;
  std::vector<Cell> cells;  // beacon cells, then tor cells
};

/// One operating point: a detector family at one threshold tuple,
/// scored against the trace's ground truth.
struct RocPoint {
  std::string detector;  // "dga-dns", "fast-flux", "flow-beacon", ...
  std::string params;    // canonical "key=value,key=value" tuple
  std::size_t flagged = 0;
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  double tpr = 0.0;
  double fpr = 0.0;
  double precision = 0.0;
  /// Per-population counts, in GroundTruth order; empty on aggregate
  /// sweeps and serialized only when present, so legacy points (and the
  /// goldens hashing them) encode exactly as before.
  std::vector<RocFamilyCount> families;
};

/// Canonical serialization of one point (strings length-prefixed,
/// doubles bit-cast) — the unit the sweep fingerprint hashes.
Bytes serialize(const RocPoint& p);

/// What a flagged set is scored against, built once per capture from
/// its infected and monitored host lists.
struct ScoringTruth {
  ScoringTruth(std::vector<HostId> infected_hosts,
               std::vector<HostId> monitored_hosts);

  std::vector<HostId> infected;   // ascending, unique
  std::vector<HostId> monitored;  // ascending, unique
  std::size_t benign = 0;         // monitored hosts that are not infected
};

/// The one operating-point scorer (RocSweep and ReplayGrid): a flagged
/// host outside the monitored set is neither TP nor FP, and a rate with
/// no infected / benign hosts is 0. `flagged` must be ascending.
RocPoint score_point(std::string detector, std::string params,
                     const std::vector<HostId>& flagged,
                     const ScoringTruth& truth, const GroundTruth& families);

/// The sweep's outcome, points in grid order (family by family, axes in
/// row-major declaration order — never completion order).
struct RocReport {
  std::vector<RocPoint> points;
  /// Chained SHA-256 (hex) over the serialized points. Equal trace +
  /// equal config reproduce it byte-for-byte at any thread count.
  std::string fingerprint;
  std::size_t threads_used = 0;
  double wall_seconds = 0.0;  // informational; never fingerprinted

  /// One CSV row per point (plus a header).
  void write_csv(std::FILE* out) const;
};

/// The grid-search harness: construction enumerates the cells, run()
/// scores every operating point from one feature pass per family. Four
/// tasks share the thread pool: the FlowScorer pass (every flow-beacon
/// and tor-flagger cell), then the DGA, fast-flux and P2P passes, each
/// of which applies all of its family's thresholds to its one feature
/// vector. An empty family runs no pass.
class RocSweep {
 public:
  explicit RocSweep(RocConfig config = {});

  std::size_t cell_count() const {
    return batch_cells_.size() + flow_grid_.cells.size();
  }
  /// Aggregate sweep: TPR/FPR against trace.infected vs the benign rest.
  RocReport run(const TrafficTrace& trace) const;
  /// Family-resolved sweep: as above, plus per-population flagged counts
  /// (RocPoint::families) for every named population in `truth`.
  RocReport run(const TrafficTrace& trace, const GroundTruth& truth) const;

 private:
  RocConfig config_;
  /// Batch-family thresholds, one per cell, in grid order.
  std::vector<DgaDetectorConfig> dga_;
  std::vector<FluxDetectorConfig> flux_;
  std::vector<P2pDetectorConfig> p2p_;
  /// Labels of the batch cells: dga, flux, then p2p.
  std::vector<FlowGrid::Cell> batch_cells_;
  FlowGrid flow_grid_;
};

}  // namespace onion::detection
