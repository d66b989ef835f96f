#include "scenario/trace_io.hpp"

#include <cstdio>
#include <utility>

#include "common/check.hpp"

namespace onion::scenario::trace_io {

namespace {

using wire::bad;
using wire::decode_payload;

// Bools travel as full canonical words: one convention repo-wide, and a
// flipped bit anywhere in the word still decodes to "true" — the
// integrity digest, not the codec, is what detects corruption.
void put_bool(Bytes& out, bool v) { put_u64(out, v ? 1 : 0); }
bool get_bool(ByteReader& r) { return r.u64() != 0; }

std::size_t get_size(ByteReader& r) {
  return static_cast<std::size_t>(r.u64());
}

void put_session(Bytes& out, const SessionSpec& s) {
  put_u64(out, static_cast<std::uint64_t>(s.model));
  put_f64(out, s.mean_hours);
  put_f64(out, s.pareto_alpha);
  put_f64(out, s.lognormal_sigma);
  put_f64(out, s.min_hours);
  put_f64(out, s.max_hours);
}

SessionSpec get_session(ByteReader& r) {
  SessionSpec s;
  const std::uint64_t model = r.u64();
  if (model > static_cast<std::uint64_t>(SessionModel::LogNormal))
    bad("unknown SessionModel value " + std::to_string(model));
  s.model = static_cast<SessionModel>(model);
  s.mean_hours = r.f64();
  s.pareto_alpha = r.f64();
  s.lognormal_sigma = r.f64();
  s.min_hours = r.f64();
  s.max_hours = r.f64();
  return s;
}

/// put_phase's encoding: ten canonical words.
constexpr std::size_t kPhaseBytes = 80;

void put_phase(Bytes& out, const AttackPhase& p) {
  put_u64(out, static_cast<std::uint64_t>(p.kind));
  put_u64(out, p.start);
  put_u64(out, p.stop);
  put_f64(out, p.takedowns_per_hour);
  put_bool(out, p.heal);
  put_u64(out, p.betweenness_pivots);
  put_u64(out, static_cast<std::uint64_t>(p.rank));
  put_u64(out, p.refresh_period);
  put_u64(out, p.soap_tick);
  put_u64(out, p.soap_rounds_per_tick);
}

AttackPhase get_phase(ByteReader& r) {
  AttackPhase p;
  const std::uint64_t kind = r.u64();
  if (kind > static_cast<std::uint64_t>(AttackKind::AdaptiveTakedown))
    bad("unknown AttackKind value " + std::to_string(kind));
  p.kind = static_cast<AttackKind>(kind);
  p.start = r.u64();
  p.stop = r.u64();
  p.takedowns_per_hour = r.f64();
  p.heal = get_bool(r);
  p.betweenness_pivots = get_size(r);
  const std::uint64_t rank = r.u64();
  if (rank > static_cast<std::uint64_t>(RankMetric::Degree))
    bad("unknown RankMetric value " + std::to_string(rank));
  p.rank = static_cast<RankMetric>(rank);
  p.refresh_period = r.u64();
  p.soap_tick = r.u64();
  p.soap_rounds_per_tick = get_size(r);
  return p;
}

/// Minimal RAII stdio handle for the reader's streaming passes.
class File {
 public:
  explicit File(const std::string& path)
      : f_(std::fopen(path.c_str(), "rb")) {
    if (f_ == nullptr) bad("cannot open trace file " + path);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }

  void seek(std::size_t pos) {
    if (std::fseek(f_, static_cast<long>(pos), SEEK_SET) != 0)
      bad("seek failed");
  }

  std::size_t size() {
    if (std::fseek(f_, 0, SEEK_END) != 0) bad("seek failed");
    const long end = std::ftell(f_);
    if (end < 0) bad("tell failed");
    return static_cast<std::size_t>(end);
  }

  void read_exact(std::uint8_t* dst, std::size_t n) {
    if (std::fread(dst, 1, n, f_) != n)
      bad("unexpected end of file (truncated frame)");
  }

 private:
  std::FILE* f_;
};

/// Reads the frame starting at `pos` (which must end by `limit`) and
/// returns its validated payload. The length word is sanity-checked
/// against the region *before* allocating, so a corrupted length cannot
/// provoke a giant allocation — it reports as a malformed frame.
Bytes read_frame_payload(File& f, std::uint64_t magic, std::size_t pos,
                         std::size_t limit, std::size_t* frame_bytes) {
  const std::size_t overhead =
      wire::kFrameHeaderBytes + wire::kFrameDigestBytes;
  if (limit < pos || limit - pos < overhead)
    bad("frame header overruns the file region");
  Bytes frame(wire::kFrameHeaderBytes);
  f.seek(pos);
  f.read_exact(frame.data(), frame.size());
  // Only the length word is consumed here; magic/version/digest are
  // wire::unframe's job once the whole frame is in memory.
  const std::uint64_t payload_len =
      read_be64(BytesView(frame.data() + 16, 8));
  if (payload_len > limit - pos - overhead)
    bad("frame length " + std::to_string(payload_len) +
        " overruns the file region");
  const std::size_t body =
      static_cast<std::size_t>(payload_len) + wire::kFrameDigestBytes;
  frame.resize(wire::kFrameHeaderBytes + body);
  f.read_exact(frame.data() + wire::kFrameHeaderBytes, body);
  *frame_bytes = frame.size();
  return wire::unframe(magic, frame);
}

}  // namespace

Bytes serialize(const ScenarioSpec& spec) {
  Bytes out;
  put_u64(out, spec.seed);
  put_u64(out, spec.initial_size);
  put_u64(out, spec.degree);
  put_u64(out, spec.horizon);
  put_f64(out, spec.churn.joins_per_hour);
  put_f64(out, spec.churn.leaves_per_hour);
  put_bool(out, spec.churn.heal_on_leave);
  put_bool(out, spec.churn.session_leaves);
  put_session(out, spec.churn.session);
  put_u64(out, spec.attacks.size());
  for (const AttackPhase& p : spec.attacks) put_phase(out, p);
  put_u64(out, spec.waves.start);
  put_u64(out, spec.waves.waves.size());
  for (const AttackWave& w : spec.waves.waves) {
    put_phase(out, w.attack);
    put_u64(out, w.duration);
    put_u64(out, w.quiet_after);
  }
  put_u64(out, spec.defense.rate_limit_per_round);
  put_f64(out, spec.defense.pow_base_cost);
  put_f64(out, spec.defense.pow_growth);
  put_u64(out, spec.defense.round);
  put_bool(out, spec.defense.charge_healing);
  put_u64(out, spec.metrics.period);
  put_bool(out, spec.metrics.degree_histogram);
  put_u64(out, spec.metrics.diameter_sweeps);
  return out;
}

ScenarioSpec deserialize_spec(ByteReader& r) {
  ScenarioSpec spec;
  spec.seed = r.u64();
  spec.initial_size = get_size(r);
  spec.degree = get_size(r);
  spec.horizon = r.u64();
  spec.churn.joins_per_hour = r.f64();
  spec.churn.leaves_per_hour = r.f64();
  spec.churn.heal_on_leave = get_bool(r);
  spec.churn.session_leaves = get_bool(r);
  spec.churn.session = get_session(r);
  spec.attacks.resize(wire::read_count(r, kPhaseBytes));
  for (AttackPhase& p : spec.attacks) p = get_phase(r);
  spec.waves.start = r.u64();
  spec.waves.waves.resize(wire::read_count(r, kPhaseBytes + 16));
  for (AttackWave& w : spec.waves.waves) {
    w.attack = get_phase(r);
    w.duration = r.u64();
    w.quiet_after = r.u64();
  }
  spec.defense.rate_limit_per_round = get_size(r);
  spec.defense.pow_base_cost = r.f64();
  spec.defense.pow_growth = r.f64();
  spec.defense.round = r.u64();
  spec.defense.charge_healing = get_bool(r);
  spec.metrics.period = r.u64();
  spec.metrics.degree_histogram = get_bool(r);
  spec.metrics.diameter_sweeps = get_size(r);
  return spec;
}

Bytes serialize(const TraceHeader& header) {
  Bytes out = serialize(header.spec);
  put_u64(out, header.initial_nodes.size());
  for (const graph::NodeId u : header.initial_nodes) put_u64(out, u);
  return out;
}

TraceHeader deserialize_header(BytesView payload) {
  return decode_payload("trace header payload", [&] {
    ByteReader r(payload);
    TraceHeader h;
    h.spec = deserialize_spec(r);
    h.initial_nodes.resize(wire::read_count(r, 8));
    for (graph::NodeId& u : h.initial_nodes)
      u = static_cast<graph::NodeId>(r.u64());
    if (!r.done()) bad("trace header payload: trailing bytes");
    return h;
  });
}

Bytes serialize(const TraceFooter& footer) {
  Bytes out;
  out.reserve(kFooterPayloadBytes);
  put_u64(out, footer.event_count);
  put_u64(out, footer.snapshot_count);
  put_u64(out, footer.chunk_count);
  out.insert(out.end(), footer.event_digest.begin(),
             footer.event_digest.end());
  return out;
}

TraceFooter deserialize_footer(BytesView payload) {
  return decode_payload("trace footer payload", [&] {
    ByteReader r(payload);
    TraceFooter f;
    f.event_count = r.u64();
    f.snapshot_count = r.u64();
    f.chunk_count = r.u64();
    const BytesView digest = r.raw(f.event_digest.size());
    std::copy(digest.begin(), digest.end(), f.event_digest.begin());
    if (!r.done()) bad("trace footer payload: trailing bytes");
    return f;
  });
}

TraceWriter::TraceWriter(std::string path, TraceWriterConfig config)
    : config_(config), writer_(std::move(path)) {
  ONION_EXPECTS(config_.chunk_records > 0);
}

void TraceWriter::on_begin(const ScenarioSpec& spec,
                           const std::vector<graph::NodeId>& initial) {
  ONION_EXPECTS(!began_);  // one campaign per trace file
  began_ = true;
  const Bytes framed =
      wire::frame(kHeaderMagic, serialize(TraceHeader{spec, initial}));
  writer_.append(framed);
}

void TraceWriter::on_event(const CampaignEvent& e) {
  ONION_EXPECTS(began_ && !finished_);
  const Bytes encoded = scenario::serialize(e);
  event_hasher_.update(encoded);
  chunk_.push_back(kEventTag);
  append(chunk_, encoded);
  ++events_;
  if (++chunk_records_ >= config_.chunk_records) flush_chunk();
}

void TraceWriter::on_snapshot(const MetricsSnapshot& s) {
  ONION_EXPECTS(began_ && !finished_);
  const Bytes encoded = scenario::serialize(s);
  chunk_.push_back(kSnapshotTag);
  put_u64(chunk_, encoded.size());
  append(chunk_, encoded);
  ++snapshots_;
  if (++chunk_records_ >= config_.chunk_records) flush_chunk();
}

void TraceWriter::flush_chunk() {
  if (chunk_.empty()) return;
  writer_.append(wire::frame(kChunkMagic, chunk_));
  chunk_.clear();
  chunk_records_ = 0;
  ++chunks_;
}

void TraceWriter::finish() {
  ONION_EXPECTS(began_ && !finished_);
  flush_chunk();
  TraceFooter footer;
  footer.event_count = events_;
  footer.snapshot_count = snapshots_;
  footer.chunk_count = chunks_;
  footer.event_digest = event_hasher_.finalize();
  const Bytes framed = wire::frame(kFooterMagic, serialize(footer));
  ONION_ENSURES(framed.size() == kFooterFrameBytes);
  writer_.append(framed);
  writer_.commit();
  fingerprint_ = to_hex(
      BytesView(footer.event_digest.data(), footer.event_digest.size()));
  finished_ = true;
}

const std::string& TraceWriter::fingerprint() const {
  ONION_EXPECTS(finished_);
  return fingerprint_;
}

TraceReader::TraceReader(std::string path) : path_(std::move(path)) {
  File f(path_);
  file_bytes_ = f.size();
  if (file_bytes_ < kFooterFrameBytes)
    bad("file too small for a trace footer (" +
        std::to_string(file_bytes_) + " bytes)");
  // Footer first: it is fixed-size, so truncation anywhere in the file
  // shifts real bytes out of the footer window and fails right here.
  std::size_t frame_bytes = 0;
  footer_ = deserialize_footer(
      read_frame_payload(f, kFooterMagic, file_bytes_ - kFooterFrameBytes,
                         file_bytes_, &frame_bytes));
  header_ = deserialize_header(read_frame_payload(
      f, kHeaderMagic, 0, file_bytes_ - kFooterFrameBytes, &frame_bytes));
  chunks_begin_ = frame_bytes;
}

std::uint64_t TraceReader::for_each_record(
    const std::function<void(std::uint8_t tag, BytesView body)>& fn) const {
  File f(path_);
  // Re-derive the region end from the live file, not the cached size:
  // the constructor's footer stays authoritative for the *counts*, and
  // any post-open resize surfaces as a frame/count mismatch below.
  const std::size_t limit = f.size() - kFooterFrameBytes;
  std::size_t pos = chunks_begin_;
  std::uint64_t chunks = 0;
  std::uint64_t events = 0;
  std::uint64_t snapshots = 0;
  while (pos < limit) {
    std::size_t frame_bytes = 0;
    const Bytes payload =
        read_frame_payload(f, kChunkMagic, pos, limit, &frame_bytes);
    pos += frame_bytes;
    ++chunks;
    decode_payload("trace chunk payload", [&] {
      ByteReader r(payload);
      while (!r.done()) {
        const std::uint8_t tag = r.raw(1)[0];
        if (tag == kEventTag) {
          ++events;
          fn(tag, r.raw(25));  // serialize(CampaignEvent) is 25 bytes
        } else if (tag == kSnapshotTag) {
          ++snapshots;
          fn(tag, r.raw(static_cast<std::size_t>(r.u64())));
        } else {
          bad("unknown record tag " + std::to_string(tag));
        }
      }
    });
  }
  if (chunks != footer_.chunk_count || events != footer_.event_count ||
      snapshots != footer_.snapshot_count)
    bad("record counts disagree with the footer (chunks " +
        std::to_string(chunks) + "/" + std::to_string(footer_.chunk_count) +
        ", events " + std::to_string(events) + "/" +
        std::to_string(footer_.event_count) + ", snapshots " +
        std::to_string(snapshots) + "/" +
        std::to_string(footer_.snapshot_count) + ")");
  return chunks;
}

void TraceReader::for_each_event(
    const std::function<void(const CampaignEvent&)>& fn) const {
  for_each_record([&](std::uint8_t tag, BytesView body) {
    if (tag != kEventTag) return;
    ByteReader r(body);
    CampaignEvent e;
    e.at = r.u64();
    e.kind = static_cast<TraceEventKind>(r.raw(1)[0]);
    e.a = r.u64();
    e.b = r.u64();
    fn(e);
  });
}

void TraceReader::for_each_snapshot(
    const std::function<void(const MetricsSnapshot&)>& fn) const {
  for_each_record([&](std::uint8_t tag, BytesView body) {
    if (tag != kSnapshotTag) return;
    fn(wire::deserialize_snapshot(body));
  });
}

std::string TraceReader::fingerprint() const {
  crypto::Sha256 hasher;
  for_each_record([&](std::uint8_t tag, BytesView body) {
    // An event's record body IS serialize(CampaignEvent), so hashing it
    // directly reproduces CampaignTrace::fingerprint() byte-for-byte.
    if (tag == kEventTag) hasher.update(body);
  });
  const crypto::Sha256Digest digest = hasher.finalize();
  if (digest != footer_.event_digest)
    bad("event digest disagrees with the footer");
  return to_hex(BytesView(digest.data(), digest.size()));
}

}  // namespace onion::scenario::trace_io
