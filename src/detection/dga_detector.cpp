#include "detection/dga_detector.hpp"

#include <array>
#include <cmath>
#include <map>

namespace onion::detection {

double name_entropy(const std::string& qname) {
  // Strip everything from the first dot: only the generated label varies.
  const std::size_t dot = qname.find('.');
  const std::size_t len = dot == std::string::npos ? qname.size() : dot;
  if (len == 0) return 0.0;

  std::array<std::size_t, 256> counts{};
  for (std::size_t i = 0; i < len; ++i)
    ++counts[static_cast<unsigned char>(qname[i])];

  double entropy = 0.0;
  const double n = static_cast<double>(len);
  for (const std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

std::vector<DgaFeatures> dga_features(const TrafficTrace& trace) {
  struct Accum {
    std::size_t queries = 0;
    std::size_t nxdomain = 0;
    double failed_entropy_sum = 0.0;
  };
  std::map<HostId, Accum> per_host;
  for (const DnsRecord& r : trace.dns) {
    Accum& a = per_host[r.client];
    ++a.queries;
    if (r.nxdomain) {
      ++a.nxdomain;
      a.failed_entropy_sum += name_entropy(r.qname);
    }
  }

  std::vector<DgaFeatures> out;
  out.reserve(per_host.size());
  for (const auto& [host, a] : per_host)
    out.push_back({host, a.queries,
                   static_cast<double>(a.nxdomain) /
                       static_cast<double>(a.queries),
                   a.nxdomain == 0 ? 0.0
                                   : a.failed_entropy_sum /
                                         static_cast<double>(a.nxdomain)});
  return out;
}

DetectionResult flag_dga(const std::vector<DgaFeatures>& features,
                         const DgaDetectorConfig& config) {
  DetectionResult result;
  for (const DgaFeatures& f : features) {
    if (f.queries < config.min_queries) continue;
    if (f.nxdomain_ratio < config.nxdomain_ratio_threshold) continue;
    if (f.failed_name_entropy < config.entropy_threshold) continue;
    result.flagged.push_back(f.host);
  }
  return result;
}

DetectionResult detect_dga(const TrafficTrace& trace,
                           const DgaDetectorConfig& config) {
  return flag_dga(dga_features(trace), config);
}

}  // namespace onion::detection
