#include "scenario/wire.hpp"

#include <algorithm>
#include <type_traits>

#include "crypto/sha256.hpp"

namespace onion::scenario::wire {

namespace {

std::uint32_t get_u32(ByteReader& r) {
  const BytesView b = r.raw(4);
  return static_cast<std::uint32_t>(b[0]) << 24 |
         static_cast<std::uint32_t>(b[1]) << 16 |
         static_cast<std::uint32_t>(b[2]) << 8 |
         static_cast<std::uint32_t>(b[3]);
}

/// Decodes all of `bytes` with `read`; underflow and trailing bytes
/// both surface as a WireError naming `what`.
template <typename Read>
auto decode_exact(BytesView bytes, const char* what, Read&& read) {
  return decode_payload(what, [&] {
    ByteReader r(bytes);
    auto value = read(r);
    if (!r.done()) bad(std::string(what) + ": trailing bytes");
    return value;
  });
}

/// The length-prefixed list (snapshots, grid cells, replay points): a
/// count, then each element's canonical encoding behind its own length
/// word. Those encodings are what fingerprints hash and are not all
/// self-delimiting (a snapshot's wave block is conditional); the prefix
/// keeps the frame decodable without touching them.
template <typename T, typename Encode>
void put_list(Bytes& out, const std::vector<T>& items, Encode&& encode) {
  put_u64(out, items.size());
  for (const T& item : items) {
    const Bytes encoded = encode(item);
    put_u64(out, encoded.size());
    append(out, encoded);
  }
}

template <typename Read>
auto read_list(ByteReader& r, const char* what, Read&& read) {
  // Each element costs at least its 8-byte length word.
  const std::size_t count = read_count(r, 8);
  std::vector<std::decay_t<decltype(read(r))>> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    items.push_back(
        decode_exact(r.raw(static_cast<std::size_t>(r.u64())), what, read));
  return items;
}

/// The tail both merged-report payloads end with: failed cells, the
/// fingerprint, then the four informational words.
template <typename Report>
void put_report_tail(Bytes& out, const Report& report,
                     const std::string& fingerprint) {
  put_u64(out, report.failed_cells.size());
  for (const FailedCell& cell : report.failed_cells) {
    put_u64(out, cell.cell_index);
    put_string(out, cell.label);
    put_u64(out, cell.seed);
    put_u64(out, cell.attempts);
    put_string(out, cell.error);
  }
  put_string(out, fingerprint);
  put_u64(out, report.threads_used);  // informational from here down
  put_f64(out, report.wall_seconds);
  put_u64(out, report.retries);
  put_u64(out, report.resumed_cells);
}

template <typename Report>
void read_report_tail(ByteReader& r, Report& report,
                      std::string& fingerprint) {
  // A failed cell is at least five words: two of them string lengths.
  report.failed_cells.resize(read_count(r, 40));
  for (FailedCell& cell : report.failed_cells) {
    cell.cell_index = r.u64();
    cell.label = r.str();
    cell.seed = r.u64();
    cell.attempts = r.u64();
    cell.error = r.str();
  }
  fingerprint = r.str();
  report.threads_used = static_cast<decltype(report.threads_used)>(r.u64());
  report.wall_seconds = r.f64();
  report.retries = r.u64();
  report.resumed_cells = r.u64();
}

MetricsSnapshot read_snapshot(ByteReader& r) {
  MetricsSnapshot s;
  s.time = static_cast<SimTime>(r.u64());
  s.honest_alive = r.u64();
  s.sybil_alive = r.u64();
  s.honest_edges = r.u64();
  s.components = r.u64();
  s.largest_component = r.u64();
  s.largest_fraction = r.f64();
  s.average_degree = r.f64();
  s.diameter = r.u64();
  s.joins = r.u64();
  s.leaves = r.u64();
  s.takedowns = r.u64();
  s.repair_edges = r.u64();
  s.prune_edges = r.u64();
  s.refill_edges = r.u64();
  s.repair_messages = r.u64();
  s.soap_clones = r.u64();
  s.soap_contained = r.u64();
  s.degree_histogram.resize(read_count(r, 4));
  for (std::uint32_t& bin : s.degree_histogram) bin = get_u32(r);
  // The conditional trailing block: present iff bytes remain, exactly
  // mirroring the serializer's empty-guard.
  if (!r.done()) {
    s.wave_takedowns.resize(read_count(r, 8));
    for (std::uint64_t& w : s.wave_takedowns) w = r.u64();
  }
  return s;
}

CellResult read_cell_result(ByteReader& r) {
  CellResult cell;
  cell.label = r.str();
  cell.seed = r.u64();
  cell.fingerprint = r.str();
  cell.series = read_list(r, "snapshot", read_snapshot);
  cell.counters.joins = r.u64();
  cell.counters.leaves = r.u64();
  cell.counters.takedowns = r.u64();
  cell.events_executed = r.u64();
  cell.wall_seconds = r.f64();
  return cell;
}

detection::ReplayGridPoint read_replay_point(ByteReader& r) {
  detection::ReplayGridPoint p;
  p.campaign = static_cast<std::size_t>(r.u64());
  p.replay_seed = r.u64();
  p.detector = r.str();
  p.params = r.str();
  p.flows = r.u64();
  p.flagged = static_cast<std::size_t>(r.u64());
  p.true_positives = static_cast<std::size_t>(r.u64());
  p.false_positives = static_cast<std::size_t>(r.u64());
  p.tpr = r.f64();
  p.fpr = r.f64();
  // A family is at least three words: a string length and two counts.
  p.families.resize(read_count(r, 24));
  for (detection::RocFamilyCount& f : p.families) {
    f.family = r.str();
    f.flagged = static_cast<std::size_t>(r.u64());
    f.population = static_cast<std::size_t>(r.u64());
  }
  return p;
}

Bytes encode_point(const detection::ReplayGridPoint& p) {
  return detection::serialize(p);
}

}  // namespace

void bad(const std::string& what) { throw WireError("wire: " + what); }

std::size_t read_count(ByteReader& r, std::size_t min_element_bytes) {
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / min_element_bytes)
    bad("declared count " + std::to_string(count) + " of " +
        std::to_string(min_element_bytes) + "-byte elements overruns the " +
        std::to_string(r.remaining()) + " bytes left");
  return static_cast<std::size_t>(count);
}

Bytes serialize(const CellResult& cell) {
  Bytes out;
  put_string(out, cell.label);
  put_u64(out, cell.seed);
  put_string(out, cell.fingerprint);
  put_list(out, cell.series,
           [](const MetricsSnapshot& s) { return scenario::serialize(s); });
  put_u64(out, cell.counters.joins);
  put_u64(out, cell.counters.leaves);
  put_u64(out, cell.counters.takedowns);
  put_u64(out, cell.events_executed);
  put_f64(out, cell.wall_seconds);  // informational: see header contract
  return out;
}

CellResult deserialize_cell_result(BytesView payload) {
  return decode_exact(payload, "cell-result payload", read_cell_result);
}

Bytes serialize(const GridReport& report) {
  Bytes out;
  put_list(out, report.cells,
           [](const CellResult& cell) { return serialize(cell); });
  put_report_tail(out, report, report.combined_fingerprint);
  return out;
}

GridReport deserialize_grid_report(BytesView payload) {
  return decode_exact(payload, "grid-report payload", [](ByteReader& r) {
    GridReport report;
    report.cells = read_list(r, "grid-report cell", read_cell_result);
    read_report_tail(r, report, report.combined_fingerprint);
    return report;
  });
}

Bytes serialize(const detection::ReplayGridCell& cell) {
  Bytes out;
  put_u64(out, cell.cell_index);
  put_u64(out, cell.campaign);
  put_u64(out, cell.replay_seed);
  put_list(out, cell.points, encode_point);
  put_f64(out, cell.wall_seconds);  // informational: see header contract
  return out;
}

detection::ReplayGridCell deserialize_replay_cell(BytesView payload) {
  return decode_exact(payload, "replay-cell payload", [](ByteReader& r) {
    detection::ReplayGridCell cell;
    cell.cell_index = r.u64();
    cell.campaign = r.u64();
    cell.replay_seed = r.u64();
    cell.points = read_list(r, "replay point", read_replay_point);
    cell.wall_seconds = r.f64();
    return cell;
  });
}

Bytes serialize(const detection::ReplayGridReport& report) {
  Bytes out;
  put_list(out, report.points, encode_point);
  put_report_tail(out, report, report.fingerprint);
  return out;
}

detection::ReplayGridReport deserialize_replay_report(BytesView payload) {
  return decode_exact(payload, "replay-report payload", [](ByteReader& r) {
    detection::ReplayGridReport report;
    report.points = read_list(r, "replay point", read_replay_point);
    read_report_tail(r, report, report.fingerprint);
    return report;
  });
}

detection::ReplayGridPoint deserialize_replay_point(BytesView encoded) {
  return decode_exact(encoded, "replay point", read_replay_point);
}

MetricsSnapshot deserialize_snapshot(BytesView encoded) {
  return decode_exact(encoded, "snapshot", read_snapshot);
}

Bytes frame(std::uint64_t magic, BytesView payload) {
  Bytes out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameDigestBytes);
  put_u64(out, magic);
  put_u64(out, kWireVersion);
  put_u64(out, payload.size());
  append(out, payload);
  const crypto::Sha256Digest digest = crypto::Sha256::hash(payload);
  append(out, BytesView(digest.data(), digest.size()));
  return out;
}

Bytes unframe(std::uint64_t magic, BytesView framed) {
  if (framed.size() < kFrameHeaderBytes + kFrameDigestBytes)
    bad("truncated frame: " + std::to_string(framed.size()) +
        " bytes, header + digest need " +
        std::to_string(kFrameHeaderBytes + kFrameDigestBytes));
  ByteReader r(framed);
  const std::uint64_t got_magic = r.u64();
  if (got_magic != magic)
    bad("bad magic " + to_hex(be64(got_magic)) + " (expected " +
        to_hex(be64(magic)) + ")");
  const std::uint64_t version = r.u64();
  if (version != kWireVersion)
    bad("unsupported wire version " + std::to_string(version) +
        " (this build speaks version " + std::to_string(kWireVersion) + ")");
  const std::uint64_t payload_len = r.u64();
  const std::uint64_t body =
      framed.size() - kFrameHeaderBytes - kFrameDigestBytes;
  if (payload_len != body)
    bad("frame length mismatch: header says " + std::to_string(payload_len) +
        " payload bytes, frame carries " + std::to_string(body));
  const BytesView payload = r.raw(static_cast<std::size_t>(payload_len));
  const BytesView claimed = r.raw(kFrameDigestBytes);
  const crypto::Sha256Digest actual = crypto::Sha256::hash(payload);
  if (!std::equal(claimed.begin(), claimed.end(), actual.begin()))
    bad("integrity digest mismatch: frame truncated or corrupted");
  return Bytes(payload.begin(), payload.end());
}

Bytes encode_cell_result(const CellResult& cell) {
  return frame(kCellResultMagic, serialize(cell));
}

CellResult decode_cell_result(BytesView framed) {
  return deserialize_cell_result(unframe(kCellResultMagic, framed));
}

Bytes encode_grid_report(const GridReport& report) {
  return frame(kGridReportMagic, serialize(report));
}

GridReport decode_grid_report(BytesView framed) {
  return deserialize_grid_report(unframe(kGridReportMagic, framed));
}

Bytes encode_replay_cell(const detection::ReplayGridCell& cell) {
  return frame(kReplayCellMagic, serialize(cell));
}

detection::ReplayGridCell decode_replay_cell(BytesView framed) {
  return deserialize_replay_cell(unframe(kReplayCellMagic, framed));
}

Bytes encode_replay_report(const detection::ReplayGridReport& report) {
  return frame(kReplayReportMagic, serialize(report));
}

detection::ReplayGridReport decode_replay_report(BytesView framed) {
  return deserialize_replay_report(unframe(kReplayReportMagic, framed));
}

}  // namespace onion::scenario::wire
