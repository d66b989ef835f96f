#include "detection/fastflux_detector.hpp"

#include <map>
#include <string_view>

namespace onion::detection {

bool is_fluxed(const FluxFeatures& f, const FluxDetectorConfig& config) {
  return f.answers >= config.min_answers &&
         f.distinct_ips > config.distinct_ips_threshold &&
         f.mean_ttl < config.ttl_threshold;
}

std::vector<FluxFeatures> flux_features(const TrafficTrace& trace) {
  struct Accum {
    std::vector<std::uint32_t> ips;
    std::vector<HostId> clients;
    double ttl_sum = 0.0;
  };
  std::map<std::string_view, Accum> per_name;
  for (const DnsRecord& r : trace.dns) {
    if (r.nxdomain) continue;
    Accum& a = per_name[r.qname];
    a.ips.push_back(r.resolved);
    a.clients.push_back(r.client);
    a.ttl_sum += static_cast<double>(r.ttl);
  }

  std::vector<FluxFeatures> out;
  out.reserve(per_name.size());
  for (auto& [name, a] : per_name)
    out.push_back({std::string(name), a.clients.size(),
                   sorted_unique(std::move(a.ips)).size(),
                   a.ttl_sum / static_cast<double>(a.clients.size()),
                   sorted_unique(std::move(a.clients))});
  return out;
}

DetectionResult flag_fastflux(const std::vector<FluxFeatures>& features,
                              const FluxDetectorConfig& config) {
  DetectionResult result;
  for (const FluxFeatures& f : features)
    if (is_fluxed(f, config))
      result.flagged.insert(result.flagged.end(), f.clients.begin(),
                            f.clients.end());
  result.flagged = sorted_unique(std::move(result.flagged));
  return result;
}

DetectionResult detect_fastflux(const TrafficTrace& trace,
                                const FluxDetectorConfig& config) {
  return flag_fastflux(flux_features(trace), config);
}

}  // namespace onion::detection
