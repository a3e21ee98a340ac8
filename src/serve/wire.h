// Wire protocol of the multi-process serving tier (DESIGN.md §10, §13).
//
// The router and its replica workers talk over connected Unix-domain
// stream sockets with a compact length-prefixed frame protocol — no
// third-party RPC, no text parsing on the hot path. Protocol version 2
// (gray-failure hardening) frames are:
//
//   [u32 payload length][u8 version][u8 frame type][payload][u32 crc32]
//
// The trailing CRC-32 (common/crc32.h — the exact checkpoint-v2 polynomial)
// covers version + type + payload, so a flipped bit anywhere in a frame is
// REJECTED instead of being parsed as truth: both decoders validate length
// bound, version, frame type, and checksum before surfacing a frame, and
// classify the defect (FrameFault) so the router can distinguish "peer is
// corrupting bytes" (kill + re-dispatch, taste_frames_corrupt_total) from
// "peer hung up". Nothing in a frame is trusted before the CRC passes.
//
// All integers are little-endian; floats travel as raw IEEE-754 bit
// patterns so a detection result deserializes BYTE-IDENTICAL to what the
// worker computed — the property the failover re-dispatch idempotency
// guarantee (and chaos_soak --replica-kill / --gray-storm) is proven
// against.
//
// Deadline propagation follows common/deadline.h semantics: a request
// carries the *remaining* budget in milliseconds, measured by the sender at
// encode time; the receiver re-anchors it on its own steady clock
// (Deadline::AfterMillis). Absolute time points never cross the process
// boundary, so clock skew between processes cannot stretch a budget.
//
// Blocking ReadFrame/WriteFrame (worker side) handle partial reads/writes,
// EINTR, and EAGAIN (nonblocking fds poll for writability rather than
// spin); the router side feeds a FrameBuffer from nonblocking reads inside
// its poll loop. A dead peer surfaces as Status (kUnavailable), never as a
// signal — binaries ignore SIGPIPE process-wide. Frame writes assert
// against interleaving: two concurrent WriteFrame calls on one fd would
// shear the stream, so the writer registry TASTE_CHECKs exclusivity.

#ifndef TASTE_SERVE_WIRE_H_
#define TASTE_SERVE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "pipeline/scheduler.h"

namespace taste::serve {

enum class FrameType : uint8_t {
  kDetectRequest = 1,   // router -> worker: table names + remaining budget
  kDetectResponse = 2,  // worker -> router: per-table results + stats
  kHeartbeat = 3,       // router -> worker: liveness probe (u64 sequence)
  kHeartbeatAck = 4,    // worker -> router: echo of the probe sequence
  kScrapeRequest = 5,   // router -> worker: metrics snapshot request
  kScrapeResponse = 6,  // worker -> router: serialized registry snapshot
  kShutdown = 7,        // router -> worker: drain and exit cleanly
};

const char* FrameTypeName(FrameType t);

/// True when `raw` is a frame type this protocol version defines; anything
/// else on the wire is a corrupt (or newer-protocol) stream.
inline constexpr bool ValidFrameType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(FrameType::kDetectRequest) &&
         raw <= static_cast<uint8_t>(FrameType::kShutdown);
}

/// Wire protocol version byte carried by every frame. Version 1 (PR 6) had
/// a 5-byte header and no checksum; version 2 added the version byte and
/// the CRC-32 trailer. A mismatch is rejected as kBadVersion — silently
/// reinterpreting frames across incompatible framings is exactly the class
/// of gray failure this field exists to stop.
inline constexpr uint8_t kWireProtocolVersion = 2;

/// Upper bound on a frame payload; a larger length prefix means a corrupt
/// or hostile stream and fails decoding instead of allocating wildly.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// [u32 len][u8 version][u8 type] before the payload …
inline constexpr size_t kFrameHeaderBytes = 6;
/// … and [u32 crc] after it.
inline constexpr size_t kFrameTrailerBytes = 4;

/// Why a frame was rejected — the typed verdict behind an error Status, so
/// callers (and the frame fuzzer) can assert on the defect class instead of
/// string-matching messages.
enum class FrameFault : uint8_t {
  kNone = 0,
  kTruncated,   // stream ended inside a frame
  kOversized,   // length prefix beyond kMaxFramePayload
  kBadVersion,  // version byte != kWireProtocolVersion
  kBadType,     // frame type outside the defined range
  kBadCrc,      // checksum trailer mismatch
};

const char* FrameFaultName(FrameFault f);

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
};

/// Serializes one frame to its full wire image (header + payload + CRC
/// trailer). Shared by WriteFrame, the chaos hooks, and the frame fuzzer's
/// corpus builder.
std::string EncodeFrame(FrameType type, const std::string& payload);

// -- Blocking stream I/O (worker side) ---------------------------------------

/// Writes one frame, restarting on EINTR and polling for writability on
/// EAGAIN (short writes on nonblocking sockets resume, never truncate).
/// A closed/reset peer returns kUnavailable (EPIPE/ECONNRESET; SIGPIPE must
/// be ignored process-wide). Concurrent writes to the same fd would
/// interleave two frames into garbage; this asserts exclusivity per fd.
Status WriteFrame(int fd, FrameType type, const std::string& payload);

/// Reads exactly one frame, blocking, and validates length bound, version,
/// type, and CRC before returning it. Clean EOF between frames returns
/// kUnavailable with message "peer closed"; EOF inside a frame is kIOError.
/// When non-null, `fault` receives the typed verdict (kNone on success).
Result<Frame> ReadFrame(int fd, FrameFault* fault = nullptr);

// -- Incremental framing (router side, nonblocking fds) ----------------------

/// Accumulates raw bytes from nonblocking reads and yields complete,
/// integrity-checked frames. Validation order: length bound and
/// version/type run as soon as the header is buffered (a length-prefix lie
/// never makes the buffer wait for gigabytes), the CRC once the whole frame
/// is present. After any error the stream is unrecoverable — framing sync
/// is lost — so the caller must drop the connection.
class FrameBuffer {
 public:
  void Append(const char* data, size_t n) { buf_.append(data, n); }

  /// Extracts the next complete frame into `out`. Returns OK and true when
  /// one was extracted, OK and false when more bytes are needed, and an
  /// error Status on a malformed frame (last_fault() says why).
  Result<bool> Next(Frame* out);

  size_t buffered() const { return buf_.size(); }

  /// Defect class of the most recent Next() error (kNone after success or
  /// needs-more-bytes).
  FrameFault last_fault() const { return last_fault_; }

 private:
  std::string buf_;
  FrameFault last_fault_ = FrameFault::kNone;
};

// -- Gray-failure injection hooks (chaos harness only) ------------------------

/// Writes a frame whose CRC trailer is correct for the ORIGINAL payload but
/// whose payload has one bit flipped afterwards — the wire image of a
/// corrupting proxy / bad NIC. The receiver must reject it (kBadCrc).
Status WriteFrameCorrupted(int fd, FrameType type, const std::string& payload);

/// Writes a valid frame in `chunk_bytes`-sized slices with `delay_us`
/// between them — a slow-drip partial writer. Exercises the receiver's
/// incremental reassembly and the router's watchdog budget.
Status WriteFrameDripped(int fd, FrameType type, const std::string& payload,
                         int chunk_bytes, int delay_us);

// -- Primitive (de)serialization ---------------------------------------------

/// Appends little-endian primitives to a byte string.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendLe(&v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// Raw IEEE-754 bits — bit-exact round trip, NaN payloads included.
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U32(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }

  std::string Take() { return std::move(out_); }
  const std::string& data() const { return out_; }

 private:
  void AppendLe(const void* p, size_t n);

  std::string out_;
};

/// Bounds-checked little-endian reader; every getter returns false once the
/// payload is exhausted (check ok() at the end of a decode).
class WireReader {
 public:
  explicit WireReader(const std::string& data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I64(int64_t* v) { return U64(reinterpret_cast<uint64_t*>(v)); }
  bool F64(double* v);
  bool F32(float* v);
  bool Str(std::string* s);

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  /// Guard for count-prefixed containers: true when the remaining payload
  /// could still hold `n` elements of at least `min_bytes` each. Decoders
  /// check this BEFORE resizing, so a lying count field can never drive a
  /// multi-gigabyte allocation from a 40-byte frame. Marks the reader
  /// failed when it cannot.
  bool FitsElements(uint64_t n, size_t min_bytes) {
    if (n * min_bytes > remaining()) {
      ok_ = false;
      return false;
    }
    return true;
  }

 private:
  bool Take(void* out, size_t n);

  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// -- Message payloads --------------------------------------------------------

/// One scatter leg: the tables a replica should detect, under a budget.
struct DetectRequest {
  uint64_t request_id = 0;
  /// Remaining budget at encode time; 0 = no deadline (mirrors
  /// PipelineOptions::deadline_ms, including < 0 = already expired).
  double deadline_remaining_ms = 0.0;
  /// Numeric mode of the leg's P2 forwards: 0 = fp32, 1 = int8
  /// (tensor::P2Dtype). Rides every frame so all replicas of a scattered
  /// batch run the same kernels — int8 determinism is per dtype, so a
  /// mixed-dtype scatter would break replica byte-agreement.
  uint8_t p2_dtype = 0;
  std::vector<std::string> tables;
};

std::string EncodeDetectRequest(const DetectRequest& req);
Result<DetectRequest> DecodeDetectRequest(const std::string& payload);

/// The gather leg: per-table terminal results in request order, plus the
/// worker executor's resilience accounting for the leg.
struct DetectResponse {
  uint64_t request_id = 0;
  double wall_ms = 0.0;
  pipeline::ResilienceStats stats;
  std::vector<pipeline::TableRunResult> tables;
};

std::string EncodeDetectResponse(const DetectResponse& resp);
Result<DetectResponse> DecodeDetectResponse(const std::string& payload);

/// Registry snapshot for per-replica scrape aggregation (obs/aggregate.h).
std::string EncodeMetricsSnapshot(const obs::Registry::Snapshot& snap);
Result<obs::Registry::Snapshot> DecodeMetricsSnapshot(
    const std::string& payload);

}  // namespace taste::serve

#endif  // TASTE_SERVE_WIRE_H_
