#include "detection/roc.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/parallel.hpp"
#include "crypto/sha256.hpp"

namespace onion::detection {

namespace {

/// Canonical number rendering for the params tuple: %g is deterministic
/// for the short decimal grid values this module sweeps.
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string fmt(std::size_t v) { return std::to_string(v); }

bool contains(const std::vector<HostId>& sorted, HostId h) {
  return std::binary_search(sorted.begin(), sorted.end(), h);
}

}  // namespace

ScoringTruth::ScoringTruth(std::vector<HostId> infected_hosts,
                           std::vector<HostId> monitored_hosts)
    : infected(sorted_unique(std::move(infected_hosts))),
      monitored(sorted_unique(std::move(monitored_hosts))) {
  for (const HostId h : monitored)
    if (!contains(infected, h)) ++benign;
}

RocPoint score_point(std::string detector, std::string params,
                     const std::vector<HostId>& flagged,
                     const ScoringTruth& truth, const GroundTruth& families) {
  RocPoint p;
  p.detector = std::move(detector);
  p.params = std::move(params);
  p.flagged = flagged.size();
  for (const HostId h : flagged) {
    if (contains(truth.infected, h))
      ++p.true_positives;
    else if (contains(truth.monitored, h))
      ++p.false_positives;
  }
  p.families.reserve(families.populations.size());
  for (const GroundTruth::Population& pop : families.populations) {
    RocFamilyCount f;
    f.family = pop.name;
    f.population = pop.hosts.size();
    for (const HostId h : pop.hosts)
      if (contains(flagged, h)) ++f.flagged;
    p.families.push_back(std::move(f));
  }
  p.tpr = truth.infected.empty()
              ? 0.0
              : static_cast<double>(p.true_positives) /
                    static_cast<double>(truth.infected.size());
  p.fpr = truth.benign == 0
              ? 0.0
              : static_cast<double>(p.false_positives) /
                    static_cast<double>(truth.benign);
  p.precision = p.flagged == 0
                    ? 0.0
                    : static_cast<double>(p.true_positives) /
                          static_cast<double>(p.flagged);
  return p;
}

FlowGrid::FlowGrid(const std::vector<double>& size_cv,
                   const std::vector<double>& gap_cv, std::size_t min_flows,
                   const std::vector<std::size_t>& tor_min_flows) {
  for (const double size : size_cv)
    for (const double gap : gap_cv) {
      FlowDetectorConfig c;
      c.min_flows = min_flows;
      c.size_cv_threshold = size;
      c.gap_cv_threshold = gap;
      thresholds.beacon_thresholds.push_back(c);
      cells.push_back(
          {"flow-beacon", "size_cv=" + fmt(size) + ",gap_cv=" + fmt(gap)});
    }
  thresholds.tor_min_flows = tor_min_flows;
  for (const std::size_t flows : tor_min_flows)
    cells.push_back({"tor-flagger", "min_flows=" + fmt(flows)});
}

Bytes serialize(const RocPoint& p) {
  Bytes out;
  out.reserve(8 * 7 + p.detector.size() + p.params.size());
  put_string(out, p.detector);
  put_string(out, p.params);
  put_u64(out, p.flagged);
  put_u64(out, p.true_positives);
  put_u64(out, p.false_positives);
  put_f64(out, p.tpr);
  put_f64(out, p.fpr);
  put_f64(out, p.precision);
  // Per-family block present iff the sweep was family-resolved: legacy
  // aggregate points keep their exact historical encoding, so committed
  // ROC fingerprints cannot move. D5-manifested as conditional.
  if (!p.families.empty()) {
    put_u64(out, p.families.size());
    for (const RocFamilyCount& f : p.families) {
      put_string(out, f.family);
      put_u64(out, f.flagged);
      put_u64(out, f.population);
    }
  }
  return out;
}

void RocReport::write_csv(std::FILE* out) const {
  std::fprintf(out,
               "detector,params,flagged,true_positives,false_positives,"
               "tpr,fpr,precision");
  // Family-resolved sweeps widen the schema; every point carries the
  // same population list (run() scores one GroundTruth), so the header
  // comes from the first point. Aggregate sweeps print the legacy CSV
  // byte-for-byte.
  if (!points.empty())
    for (const RocFamilyCount& f : points.front().families)
      std::fprintf(out, ",%s_flagged,%s_population", f.family.c_str(),
                   f.family.c_str());
  std::fprintf(out, "\n");
  for (const RocPoint& p : points) {
    std::fprintf(out, "%s,\"%s\",%zu,%zu,%zu,%.6f,%.6f,%.6f",
                 p.detector.c_str(), p.params.c_str(), p.flagged,
                 p.true_positives, p.false_positives, p.tpr, p.fpr,
                 p.precision);
    for (const RocFamilyCount& f : p.families)
      std::fprintf(out, ",%zu,%zu", f.flagged, f.population);
    std::fprintf(out, "\n");
  }
}

RocSweep::RocSweep(RocConfig config)
    : config_(std::move(config)),
      flow_grid_(config_.flow_size_cv, config_.flow_gap_cv,
                 FlowDetectorConfig{}.min_flows, config_.tor_min_flows) {
  // Enumeration order fixes the report's row order and therefore the
  // fingerprint: family by family, axes row-major as declared (the
  // flow-beacon and tor-flagger cells are flow_grid_'s).
  for (const double entropy : config_.dga_entropy)
    for (const double ratio : config_.dga_nxdomain) {
      dga_.push_back(
          {.nxdomain_ratio_threshold = ratio, .entropy_threshold = entropy});
      batch_cells_.push_back(
          {"dga-dns", "entropy=" + fmt(entropy) + ",nxdomain=" + fmt(ratio)});
    }
  for (const std::size_t ips : config_.flux_distinct_ips)
    for (const double ttl : config_.flux_ttl) {
      flux_.push_back({.distinct_ips_threshold = ips, .ttl_threshold = ttl});
      batch_cells_.push_back(
          {"fast-flux", "distinct_ips=" + fmt(ips) + ",ttl=" + fmt(ttl)});
    }
  for (const std::size_t degree : config_.p2p_degree)
    for (const double inter : config_.p2p_interconnection) {
      p2p_.push_back(
          {.min_peer_degree = degree, .min_peer_interconnection = inter});
      batch_cells_.push_back({"p2p-mesh", "degree=" + fmt(degree) +
                                              ",interconnection=" +
                                              fmt(inter)});
    }
}

RocReport RocSweep::run(const TrafficTrace& trace) const {
  return run(trace, GroundTruth{});
}

RocReport RocSweep::run(const TrafficTrace& trace,
                        const GroundTruth& truth) const {
  RocReport report;
  report.points.resize(cell_count());
  const auto start = std::chrono::steady_clock::now();
  const ScoringTruth scoring(trace.infected, trace.hosts);

  // Grid order: dga, flux | flow-beacon | p2p | tor-flagger.
  const std::size_t beacons = flow_grid_.thresholds.beacon_thresholds.size();
  const std::size_t beacon_slot = dga_.size() + flux_.size();
  // One batch family: compute its features once, then apply every one
  // of its thresholds (cells first .. first + configs.size()) to them.
  const auto family = [&](std::size_t first, const auto& configs,
                          const auto& features_of, const auto& flag) {
    if (configs.empty()) return;
    const auto features = features_of(trace);
    for (std::size_t i = first; i < first + configs.size(); ++i) {
      const FlowGrid::Cell& cell = batch_cells_[i];
      report.points[i < beacon_slot ? i : i + beacons] =
          score_point(cell.detector, cell.params,
                      flag(features, configs[i - first]).flagged, scoring,
                      truth);
    }
  };

  // Every p2p cell keeps the default min_pair_bytes, so one mesh pass
  // serves them all.
  const auto mesh = [](const TrafficTrace& t) {
    return mesh_features(t, P2pDetectorConfig{}.min_pair_bytes);
  };

  // Task 0 is the flow pass, the longest, so the three batch passes
  // overlap it. Each pass reads the shared, read-only trace and writes
  // only its own cells' grid slots — the sharding is invisible.
  report.threads_used = parallel_for_index(
      4, config_.threads, [&](std::size_t task) {
        switch (task) {
          case 0: {
            if (flow_grid_.cells.empty()) return;
            FlowScorer scorer(flow_grid_.thresholds);
            feed_trace(trace, scorer);
            scorer.finish();
            for (std::size_t k = 0; k < flow_grid_.cells.size(); ++k)
              report.points[k < beacons ? beacon_slot + k
                                        : batch_cells_.size() + k] =
                  score_point(flow_grid_.cells[k].detector,
                              flow_grid_.cells[k].params,
                              scorer.flagged()[k], scoring, truth);
            return;
          }
          case 1:
            return family(0, dga_, dga_features, flag_dga);
          case 2:
            return family(dga_.size(), flux_, flux_features, flag_fastflux);
          default:
            return family(beacon_slot, p2p_, mesh, flag_p2p);
        }
      });

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  crypto::Sha256 hasher;
  for (const RocPoint& p : report.points) hasher.update(serialize(p));
  const crypto::Sha256Digest digest = hasher.finalize();
  report.fingerprint = to_hex(BytesView(digest.data(), digest.size()));
  return report;
}

}  // namespace onion::detection
