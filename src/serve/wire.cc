#include "serve/wire.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <set>

#include "common/crc32.h"
#include "common/logging.h"

namespace taste::serve {

const char* FrameTypeName(FrameType t) {
  switch (t) {
    case FrameType::kDetectRequest:
      return "detect_request";
    case FrameType::kDetectResponse:
      return "detect_response";
    case FrameType::kHeartbeat:
      return "heartbeat";
    case FrameType::kHeartbeatAck:
      return "heartbeat_ack";
    case FrameType::kScrapeRequest:
      return "scrape_request";
    case FrameType::kScrapeResponse:
      return "scrape_response";
    case FrameType::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

const char* FrameFaultName(FrameFault f) {
  switch (f) {
    case FrameFault::kNone:
      return "none";
    case FrameFault::kTruncated:
      return "truncated";
    case FrameFault::kOversized:
      return "oversized";
    case FrameFault::kBadVersion:
      return "bad_version";
    case FrameFault::kBadType:
      return "bad_type";
    case FrameFault::kBadCrc:
      return "bad_crc";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Blocking stream I/O

namespace {

obs::Counter* CorruptCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_frames_corrupt_total");
  return c;
}

/// Counts an integrity rejection (anything but clean truncation, which the
/// death-detection path already accounts for) and returns the fault.
FrameFault CountCorrupt(FrameFault f) {
  CorruptCounter()->Inc();
  return f;
}

// Frame writes must never interleave: two frames sheared together on one
// stream socket desynchronize the framing for good. The router and worker
// are single-threaded on each fd by design; this registry turns a future
// concurrent-dispatch regression into a loud TASTE_CHECK instead of a
// corrupt-stream heisenbug.
std::mutex g_inflight_writes_mu;
std::set<int> g_inflight_writes;

class ScopedWriteExclusive {
 public:
  explicit ScopedWriteExclusive(int fd) : fd_(fd) {
    std::lock_guard<std::mutex> lock(g_inflight_writes_mu);
    TASTE_CHECK(g_inflight_writes.insert(fd_).second);
  }
  ~ScopedWriteExclusive() {
    std::lock_guard<std::mutex> lock(g_inflight_writes_mu);
    g_inflight_writes.erase(fd_);
  }

 private:
  int fd_;
};

Status WriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Nonblocking fd with a full socket buffer: a short write already
      // advanced `off`; wait for writability and resume — returning here
      // would tear the frame mid-stream.
      pollfd p{fd, POLLOUT, 0};
      (void)::poll(&p, 1, /*timeout_ms=*/100);
      continue;
    }
    if (w < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return Status::Unavailable("peer closed while writing frame");
    }
    return Status::IOError("frame write failed: errno " +
                           std::to_string(errno));
  }
  return Status::OK();
}

/// Reads exactly n bytes. `clean_eof_ok` distinguishes EOF at a frame
/// boundary (peer hung up between frames — kUnavailable) from EOF inside a
/// frame (torn write, the peer died mid-send — kIOError).
Status ReadAll(int fd, char* data, size_t n, bool clean_eof_ok) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, data + off, n - off);
    if (r > 0) {
      off += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) {
      if (clean_eof_ok && off == 0) {
        return Status::Unavailable("peer closed");
      }
      return Status::IOError("EOF inside frame");
    }
    if (r < 0 && errno == ECONNRESET) {
      return Status::Unavailable("peer reset while reading frame");
    }
    return Status::IOError("frame read failed: errno " + std::to_string(errno));
  }
  return Status::OK();
}

uint32_t LoadU32Le(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

}  // namespace

std::string EncodeFrame(FrameType type, const std::string& payload) {
  TASTE_CHECK(payload.size() <= kMaxFramePayload);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  frame.push_back(static_cast<char>(len & 0xFF));
  frame.push_back(static_cast<char>((len >> 8) & 0xFF));
  frame.push_back(static_cast<char>((len >> 16) & 0xFF));
  frame.push_back(static_cast<char>((len >> 24) & 0xFF));
  frame.push_back(static_cast<char>(kWireProtocolVersion));
  frame.push_back(static_cast<char>(type));
  frame.append(payload);
  // CRC over version + type + payload: everything after the length prefix.
  const uint32_t crc =
      Crc32(frame.data() + 4, frame.size() - 4);
  frame.push_back(static_cast<char>(crc & 0xFF));
  frame.push_back(static_cast<char>((crc >> 8) & 0xFF));
  frame.push_back(static_cast<char>((crc >> 16) & 0xFF));
  frame.push_back(static_cast<char>((crc >> 24) & 0xFF));
  return frame;
}

Status WriteFrame(int fd, FrameType type, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::Invalid("frame payload exceeds kMaxFramePayload");
  }
  // One buffered write so a frame is a single syscall in the common case
  // (SOCK_STREAM keeps no boundaries; coalescing is purely for efficiency).
  const std::string frame = EncodeFrame(type, payload);
  ScopedWriteExclusive guard(fd);
  return WriteAll(fd, frame.data(), frame.size());
}

namespace {

/// Validates the 6-byte header. Returns kNone when len/version/type are all
/// plausible (the CRC still pends on the full frame).
FrameFault CheckHeader(const char* head, uint32_t* len) {
  *len = LoadU32Le(head);
  if (*len > kMaxFramePayload) return FrameFault::kOversized;
  if (static_cast<uint8_t>(head[4]) != kWireProtocolVersion) {
    return FrameFault::kBadVersion;
  }
  if (!ValidFrameType(static_cast<uint8_t>(head[5]))) {
    return FrameFault::kBadType;
  }
  return FrameFault::kNone;
}

Status HeaderFaultStatus(FrameFault f, uint32_t len, uint8_t version,
                         uint8_t type) {
  switch (f) {
    case FrameFault::kOversized:
      return Status::IOError("frame length " + std::to_string(len) +
                             " exceeds protocol maximum (corrupt stream?)");
    case FrameFault::kBadVersion:
      return Status::IOError("frame version " + std::to_string(version) +
                             " != protocol version " +
                             std::to_string(kWireProtocolVersion));
    case FrameFault::kBadType:
      return Status::IOError("invalid frame type " + std::to_string(type));
    default:
      return Status::OK();
  }
}

}  // namespace

Result<Frame> ReadFrame(int fd, FrameFault* fault) {
  if (fault != nullptr) *fault = FrameFault::kNone;
  auto fail = [fault](FrameFault f, Status st) -> Status {
    if (fault != nullptr) *fault = f;
    if (f != FrameFault::kTruncated) CountCorrupt(f);
    return st;
  };
  char head[kFrameHeaderBytes];
  {
    const Status st = ReadAll(fd, head, sizeof(head), /*clean_eof_ok=*/true);
    if (!st.ok()) {
      if (fault != nullptr && st.code() == StatusCode::kIOError) {
        *fault = FrameFault::kTruncated;
      }
      return st;
    }
  }
  uint32_t len = 0;
  const FrameFault hf = CheckHeader(head, &len);
  if (hf != FrameFault::kNone) {
    return fail(hf, HeaderFaultStatus(hf, len, static_cast<uint8_t>(head[4]),
                                      static_cast<uint8_t>(head[5])));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(head[5]);
  frame.payload.resize(len);
  if (len > 0) {
    const Status st = ReadAll(fd, frame.payload.data(), len,
                              /*clean_eof_ok=*/false);
    if (!st.ok()) return fail(FrameFault::kTruncated, st);
  }
  char trailer[kFrameTrailerBytes];
  {
    const Status st = ReadAll(fd, trailer, sizeof(trailer),
                              /*clean_eof_ok=*/false);
    if (!st.ok()) return fail(FrameFault::kTruncated, st);
  }
  uint32_t crc = Crc32Update(0, reinterpret_cast<const uint8_t*>(head) + 4,
                             kFrameHeaderBytes - 4);
  crc = Crc32Update(crc, reinterpret_cast<const uint8_t*>(frame.payload.data()),
                    frame.payload.size());
  if (crc != LoadU32Le(trailer)) {
    return fail(FrameFault::kBadCrc,
                Status::IOError("frame CRC mismatch (corrupt stream)"));
  }
  return frame;
}

Result<bool> FrameBuffer::Next(Frame* out) {
  last_fault_ = FrameFault::kNone;
  if (buf_.size() < kFrameHeaderBytes) return false;
  uint32_t len = 0;
  // Header checks run before the payload is even buffered: a lying length
  // prefix (or a foreign-protocol peer) is rejected from 6 bytes, never
  // "waited out" with an unbounded buffer.
  const FrameFault hf = CheckHeader(buf_.data(), &len);
  if (hf != FrameFault::kNone) {
    last_fault_ = CountCorrupt(hf);
    return HeaderFaultStatus(hf, len, static_cast<uint8_t>(buf_[4]),
                             static_cast<uint8_t>(buf_[5]));
  }
  const size_t total =
      kFrameHeaderBytes + static_cast<size_t>(len) + kFrameTrailerBytes;
  if (buf_.size() < total) return false;
  const uint32_t crc = Crc32(buf_.data() + 4, kFrameHeaderBytes - 4 + len);
  if (crc != LoadU32Le(buf_.data() + kFrameHeaderBytes + len)) {
    last_fault_ = CountCorrupt(FrameFault::kBadCrc);
    return Status::IOError("frame CRC mismatch (corrupt stream)");
  }
  out->type = static_cast<FrameType>(buf_[5]);
  out->payload.assign(buf_, kFrameHeaderBytes, len);
  buf_.erase(0, total);
  return true;
}

// ---------------------------------------------------------------------------
// Gray-failure injection hooks

Status WriteFrameCorrupted(int fd, FrameType type, const std::string& payload) {
  std::string frame = EncodeFrame(type, payload);
  // Flip one payload bit AFTER the CRC was computed — the checksum is now a
  // witness against the frame, exactly like a corrupting proxy en route.
  const size_t victim =
      kFrameHeaderBytes + (payload.empty() ? 0 : payload.size() / 2);
  frame[victim] = static_cast<char>(frame[victim] ^ 0x10);
  ScopedWriteExclusive guard(fd);
  return WriteAll(fd, frame.data(), frame.size());
}

Status WriteFrameDripped(int fd, FrameType type, const std::string& payload,
                         int chunk_bytes, int delay_us) {
  const std::string frame = EncodeFrame(type, payload);
  const size_t chunk = chunk_bytes < 1 ? 1 : static_cast<size_t>(chunk_bytes);
  ScopedWriteExclusive guard(fd);
  for (size_t off = 0; off < frame.size(); off += chunk) {
    const size_t n = std::min(chunk, frame.size() - off);
    TASTE_RETURN_IF_ERROR(WriteAll(fd, frame.data() + off, n));
    if (delay_us > 0) ::usleep(static_cast<useconds_t>(delay_us));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Primitives

void WireWriter::AppendLe(const void* p, size_t n) {
  const unsigned char* u = static_cast<const unsigned char*>(p);
  // All supported targets are little-endian; keep the byte-by-byte form so
  // the wire format is fixed even if that ever changes.
  uint64_t v = 0;
  std::memcpy(&v, u, n);
  for (size_t i = 0; i < n; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

bool WireReader::Take(void* out, size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  std::memcpy(out, &v, n);
  pos_ += n;
  return true;
}

bool WireReader::U8(uint8_t* v) { return Take(v, sizeof(*v)); }
bool WireReader::U32(uint32_t* v) { return Take(v, sizeof(*v)); }
bool WireReader::U64(uint64_t* v) { return Take(v, sizeof(*v)); }

bool WireReader::F64(double* v) {
  uint64_t bits;
  if (!U64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool WireReader::F32(float* v) {
  uint32_t bits;
  if (!U32(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool WireReader::Str(std::string* s) {
  uint32_t n;
  if (!U32(&n)) return false;
  if (data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  s->assign(data_, pos_, n);
  pos_ += n;
  return true;
}

// ---------------------------------------------------------------------------
// DetectRequest

std::string EncodeDetectRequest(const DetectRequest& req) {
  WireWriter w;
  w.U64(req.request_id);
  w.F64(req.deadline_remaining_ms);
  w.U8(req.p2_dtype);
  w.U32(static_cast<uint32_t>(req.tables.size()));
  for (const auto& t : req.tables) w.Str(t);
  return w.Take();
}

Result<DetectRequest> DecodeDetectRequest(const std::string& payload) {
  WireReader r(payload);
  DetectRequest req;
  uint32_t n = 0;
  r.U64(&req.request_id);
  r.F64(&req.deadline_remaining_ms);
  r.U8(&req.p2_dtype);
  r.U32(&n);
  // Each table name costs at least its 4-byte length prefix; a count the
  // remaining payload cannot hold is a lie, not a big batch.
  if (!r.ok() || !r.FitsElements(n, 4)) {
    return Status::IOError("truncated DetectRequest");
  }
  for (uint32_t i = 0; r.ok() && i < n; ++i) {
    std::string t;
    r.Str(&t);
    req.tables.push_back(std::move(t));
  }
  if (!r.ok()) return Status::IOError("truncated DetectRequest");
  return req;
}

// ---------------------------------------------------------------------------
// DetectResponse

namespace {

void EncodeStatus(WireWriter* w, const Status& s) {
  w->U8(static_cast<uint8_t>(s.code()));
  w->Str(s.ok() ? std::string() : s.message());
}

bool DecodeStatus(WireReader* r, Status* out) {
  uint8_t code = 0;
  std::string msg;
  if (!r->U8(&code) || !r->Str(&msg)) return false;
  // Reconstruct through the only non-OK constructor path: any code with a
  // message. kOk round-trips as the default Status.
  const StatusCode sc = static_cast<StatusCode>(code);
  if (sc == StatusCode::kOk) {
    *out = Status::OK();
    return true;
  }
  // Build a Status of the right code carrying the original message.
  switch (sc) {
    case StatusCode::kInvalidArgument:
      *out = Status::Invalid(msg);
      break;
    case StatusCode::kNotFound:
      *out = Status::NotFound(msg);
      break;
    case StatusCode::kAlreadyExists:
      *out = Status::AlreadyExists(msg);
      break;
    case StatusCode::kIOError:
      *out = Status::IOError(msg);
      break;
    case StatusCode::kOutOfRange:
      *out = Status::OutOfRange(msg);
      break;
    case StatusCode::kUnimplemented:
      *out = Status::Unimplemented(msg);
      break;
    case StatusCode::kCancelled:
      *out = Status::Cancelled(msg);
      break;
    case StatusCode::kResourceExhausted:
      *out = Status::ResourceExhausted(msg);
      break;
    case StatusCode::kDeadlineExceeded:
      *out = Status::DeadlineExceeded(msg);
      break;
    case StatusCode::kUnavailable:
      *out = Status::Unavailable(msg);
      break;
    default:
      *out = Status::Internal(msg);
      break;
  }
  return true;
}

void EncodeResilience(WireWriter* w, const pipeline::ResilienceStats& s) {
  w->I64(s.retries);
  w->I64(s.connect_retries);
  w->I64(s.breaker_trips);
  w->I64(s.breaker_short_circuits);
  w->I64(s.degraded_columns);
  w->I64(s.failed_columns);
  w->I64(s.failed_tables);
  w->I64(s.deadline_misses);
  w->I64(s.shed_tables);
  w->I64(s.expired_tables);
  w->I64(s.degraded_tables);
}

bool DecodeResilience(WireReader* r, pipeline::ResilienceStats* s) {
  return r->I64(&s->retries) && r->I64(&s->connect_retries) &&
         r->I64(&s->breaker_trips) && r->I64(&s->breaker_short_circuits) &&
         r->I64(&s->degraded_columns) && r->I64(&s->failed_columns) &&
         r->I64(&s->failed_tables) && r->I64(&s->deadline_misses) &&
         r->I64(&s->shed_tables) && r->I64(&s->expired_tables) &&
         r->I64(&s->degraded_tables);
}

void EncodeTableRunResult(WireWriter* w, const pipeline::TableRunResult& t) {
  EncodeStatus(w, t.status);
  w->U8(static_cast<uint8_t>(t.outcome));
  const core::TableDetectionResult& res = t.result;
  w->Str(res.table_name);
  w->U32(static_cast<uint32_t>(res.columns_scanned));
  w->U32(static_cast<uint32_t>(res.total_columns));
  w->U32(static_cast<uint32_t>(res.degraded_columns));
  w->U32(static_cast<uint32_t>(res.failed_columns));
  w->U32(static_cast<uint32_t>(res.retries));
  w->U32(static_cast<uint32_t>(res.deadline_misses));
  w->U32(static_cast<uint32_t>(res.breaker_short_circuits));
  w->U32(static_cast<uint32_t>(res.columns.size()));
  for (const auto& col : res.columns) {
    w->Str(col.column_name);
    w->U32(static_cast<uint32_t>(col.ordinal));
    w->U8(col.went_to_p2 ? 1 : 0);
    w->U8(static_cast<uint8_t>(col.provenance));
    w->U32(static_cast<uint32_t>(col.admitted_types.size()));
    for (int ty : col.admitted_types) w->U32(static_cast<uint32_t>(ty));
    w->U32(static_cast<uint32_t>(col.probabilities.size()));
    for (float p : col.probabilities) w->F32(p);
  }
}

bool DecodeTableRunResult(WireReader* r, pipeline::TableRunResult* t) {
  uint8_t outcome = 0;
  if (!DecodeStatus(r, &t->status) || !r->U8(&outcome)) return false;
  t->outcome = static_cast<pipeline::TableOutcome>(outcome);
  core::TableDetectionResult& res = t->result;
  uint32_t scanned = 0, total = 0, degraded = 0, failed = 0, retries = 0,
           misses = 0, shorts = 0, ncols = 0;
  if (!r->Str(&res.table_name) || !r->U32(&scanned) || !r->U32(&total) ||
      !r->U32(&degraded) || !r->U32(&failed) || !r->U32(&retries) ||
      !r->U32(&misses) || !r->U32(&shorts) || !r->U32(&ncols)) {
    return false;
  }
  res.columns_scanned = static_cast<int>(scanned);
  res.total_columns = static_cast<int>(total);
  res.degraded_columns = static_cast<int>(degraded);
  res.failed_columns = static_cast<int>(failed);
  res.retries = static_cast<int>(retries);
  res.deadline_misses = static_cast<int>(misses);
  res.breaker_short_circuits = static_cast<int>(shorts);
  // A column serializes to >= 18 bytes (name + ordinal + 2 flags + two
  // counts); cap the resize by what the payload can actually hold.
  if (!r->FitsElements(ncols, 18)) return false;
  res.columns.resize(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    core::ColumnPrediction& col = res.columns[c];
    uint32_t ordinal = 0, ntypes = 0, nprobs = 0;
    uint8_t p2 = 0, prov = 0;
    if (!r->Str(&col.column_name) || !r->U32(&ordinal) || !r->U8(&p2) ||
        !r->U8(&prov) || !r->U32(&ntypes)) {
      return false;
    }
    col.ordinal = static_cast<int>(ordinal);
    col.went_to_p2 = p2 != 0;
    col.provenance = static_cast<core::ResultProvenance>(prov);
    if (!r->FitsElements(ntypes, 4)) return false;
    col.admitted_types.resize(ntypes);
    for (uint32_t i = 0; i < ntypes; ++i) {
      uint32_t ty = 0;
      if (!r->U32(&ty)) return false;
      col.admitted_types[i] = static_cast<int>(ty);
    }
    if (!r->U32(&nprobs) || !r->FitsElements(nprobs, 4)) return false;
    col.probabilities.resize(nprobs);
    for (uint32_t i = 0; i < nprobs; ++i) {
      if (!r->F32(&col.probabilities[i])) return false;
    }
  }
  return true;
}

}  // namespace

std::string EncodeDetectResponse(const DetectResponse& resp) {
  WireWriter w;
  w.U64(resp.request_id);
  w.F64(resp.wall_ms);
  EncodeResilience(&w, resp.stats);
  w.U32(static_cast<uint32_t>(resp.tables.size()));
  for (const auto& t : resp.tables) EncodeTableRunResult(&w, t);
  return w.Take();
}

Result<DetectResponse> DecodeDetectResponse(const std::string& payload) {
  WireReader r(payload);
  DetectResponse resp;
  uint32_t n = 0;
  if (!r.U64(&resp.request_id) || !r.F64(&resp.wall_ms) ||
      !DecodeResilience(&r, &resp.stats) || !r.U32(&n) ||
      // A table result serializes to >= 42 bytes (status + outcome + name
      // prefix + 8 u32 counters); a larger count cannot be honest.
      !r.FitsElements(n, 42)) {
    return Status::IOError("truncated DetectResponse header");
  }
  resp.tables.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!DecodeTableRunResult(&r, &resp.tables[i])) {
      return Status::IOError("truncated DetectResponse table " +
                             std::to_string(i));
    }
  }
  return resp;
}

// ---------------------------------------------------------------------------
// Metrics snapshot

std::string EncodeMetricsSnapshot(const obs::Registry::Snapshot& snap) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(snap.counters.size()));
  for (const auto& [name, v] : snap.counters) {
    w.Str(name);
    w.I64(v);
  }
  w.U32(static_cast<uint32_t>(snap.gauges.size()));
  for (const auto& [name, v] : snap.gauges) {
    w.Str(name);
    w.F64(v);
  }
  w.U32(static_cast<uint32_t>(snap.histograms.size()));
  for (const auto& [name, h] : snap.histograms) {
    w.Str(name);
    w.U32(static_cast<uint32_t>(h.bounds.size()));
    for (double b : h.bounds) w.F64(b);
    w.U32(static_cast<uint32_t>(h.counts.size()));
    for (int64_t c : h.counts) w.I64(c);
    w.I64(h.count);
    w.F64(h.sum);
  }
  return w.Take();
}

Result<obs::Registry::Snapshot> DecodeMetricsSnapshot(
    const std::string& payload) {
  WireReader r(payload);
  obs::Registry::Snapshot snap;
  uint32_t n = 0;
  r.U32(&n);
  if (r.ok()) r.FitsElements(n, 12);  // name prefix + i64 value
  for (uint32_t i = 0; r.ok() && i < n; ++i) {
    std::string name;
    int64_t v = 0;
    if (r.Str(&name) && r.I64(&v)) snap.counters[name] = v;
  }
  r.U32(&n);
  if (r.ok()) r.FitsElements(n, 12);  // name prefix + f64 value
  for (uint32_t i = 0; r.ok() && i < n; ++i) {
    std::string name;
    double v = 0;
    if (r.Str(&name) && r.F64(&v)) snap.gauges[name] = v;
  }
  r.U32(&n);
  if (r.ok()) r.FitsElements(n, 28);  // name + 2 counts + i64 + f64
  for (uint32_t i = 0; r.ok() && i < n; ++i) {
    std::string name;
    obs::Histogram::Snapshot h;
    uint32_t nb = 0, nc = 0;
    if (!r.Str(&name) || !r.U32(&nb) || !r.FitsElements(nb, 8)) break;
    h.bounds.resize(nb);
    for (uint32_t k = 0; k < nb; ++k) {
      if (!r.F64(&h.bounds[k])) break;
    }
    if (!r.U32(&nc) || !r.FitsElements(nc, 8)) break;
    h.counts.resize(nc);
    for (uint32_t k = 0; k < nc; ++k) {
      if (!r.I64(&h.counts[k])) break;
    }
    if (r.I64(&h.count) && r.F64(&h.sum)) {
      snap.histograms[name] = std::move(h);
    }
  }
  if (!r.ok()) return Status::IOError("truncated metrics snapshot");
  return snap;
}

}  // namespace taste::serve
