// Wire protocol for the alignment server (S46): versioned, length-prefixed
// binary frames.
//
// Everything the serving stack built in-process (priorities, deadlines,
// admission, multi-reference routing, per-request latency attribution)
// becomes reachable over a host boundary through one frame shape:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic "PALN"
//        4     2  protocol version (little-endian u16, currently 1)
//        6     2  frame type (u16: request / response / ping / pong / error)
//        8     8  request id (u64: client-chosen correlation id, echoed)
//       16     4  payload length (u32, bytes)
//       20     4  payload checksum (u32, FNV-1a over the payload bytes)
//       24     N  payload
//
// All integers are little-endian, encoded explicitly (shift-based — no
// struct punning, so the format is identical across hosts). Doubles travel
// as the u64 bit pattern of their IEEE-754 representation.
//
// Versioning rules (docs/wire_protocol.md): the magic and the version
// field's position are frozen forever; any change to the header layout or
// to a payload encoding bumps the version, and a decoder rejects versions
// it does not speak, naming the "version" field. Payloads may grow by
// appending fields only within a version's lifetime — never by reordering.
//
// This header is the pure half of src/net: encode/decode functions over
// byte buffers, unit-testable without a socket in sight. The decoder is
// incremental (feed() arbitrary slices, next() yields complete frames) so
// the server's per-connection state machine reassembles frames from
// whatever the kernel hands it. Every decode failure names the offending
// field — the server forwards that name to the client in an error frame.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/align/types.h"
#include "src/genome/alphabet.h"
#include "src/obs/request_trace.h"

namespace pim::net {

inline constexpr char kMagic[4] = {'P', 'A', 'L', 'N'};
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
/// Default ceiling on a single frame's payload. A length field beyond the
/// decoder's limit is rejected before any buffering ("payload_length") —
/// a malicious length prefix cannot make the server allocate.
inline constexpr std::size_t kDefaultMaxPayloadBytes = 64u << 20;

enum class FrameType : std::uint16_t {
  kAlignRequest = 1,   ///< WireAlignRequest payload.
  kAlignResponse = 2,  ///< WireAlignResponse payload.
  kPing = 3,           ///< Liveness probe; payload echoed back in kPong.
  kPong = 4,
  kError = 5,          ///< WireError payload (offending field + message).
};

const char* to_string(FrameType type);

/// One complete, checksum-verified frame.
struct Frame {
  FrameType type = FrameType::kPing;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// FNV-1a (32-bit) over a byte range — the payload checksum.
std::uint32_t fnv1a32(const std::uint8_t* data, std::size_t size);

/// Encode a complete frame (header + payload) ready to write to a socket.
std::vector<std::uint8_t> encode_frame(FrameType type, std::uint64_t request_id,
                                       const std::vector<std::uint8_t>& payload);

/// Incremental frame reassembly: feed() arbitrary byte slices as they
/// arrive, call next() until it stops yielding kFrame. Decode errors are
/// sticky — a byte stream that desynced once cannot be trusted again, so
/// the owner (one connection) must close.
class FrameDecoder {
 public:
  struct Options {
    std::size_t max_payload_bytes = kDefaultMaxPayloadBytes;
  };

  FrameDecoder() = default;
  explicit FrameDecoder(Options options) : options_(options) {}

  enum class Result : std::uint8_t {
    kFrame,     ///< `out` holds a complete verified frame.
    kNeedMore,  ///< No complete frame buffered yet; feed() more bytes.
    kError,     ///< Malformed stream; error_field()/error_message() say why.
  };

  void feed(const std::uint8_t* data, std::size_t size);
  Result next(Frame& out);

  bool failed() const { return failed_; }
  /// The header field that failed validation ("magic", "version",
  /// "payload_length", "checksum"). Empty until a failure.
  const std::string& error_field() const { return error_field_; }
  const std::string& error_message() const { return error_message_; }
  /// Bytes buffered but not yet consumed by a complete frame.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  Result fail(const char* field, std::string message);

  Options options_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< Prefix of buffer_ already handed out.
  bool failed_ = false;
  std::string error_field_;
  std::string error_message_;
};

// ---------------------------------------------------------------------------
// Payload codecs.

/// A client's alignment request as it travels the wire. Reads are 2-bit
/// packed (4 bases per byte — the same density the PIM staging layer and
/// the persisted index use), so a request's payload is ~4x smaller than
/// ASCII FASTQ before any transport compression.
///
/// Layout: u8 priority | u8 flags (bit0 = want_sam) | i64 deadline budget
/// in microseconds (kNoDeadline = none; a *relative* budget, because the
/// client's clock and the server's steady clock share no epoch — the
/// server anchors it to its own now() at decode) | u16 reference_id length
/// + bytes | u32 read count | per read: u32 base count + ceil(n/4) bytes
/// of packed bases (2 bits each, first base in the low bits).
struct WireAlignRequest {
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::min();

  std::uint8_t priority = 1;  ///< RequestPriority ordinal (validated < 2).
  bool want_sam = false;      ///< Ask the server to render SAM records.
  /// Deadline budget relative to server receipt; nullopt = no deadline.
  std::optional<std::chrono::microseconds> deadline_budget;
  std::string reference_id;   ///< Empty on a single-reference server.
  std::vector<std::vector<genome::Base>> reads;
};

/// A server's response. Status is the serve::RequestStatus ordinal, plus
/// kWireStatusError for engine/internal failures that in-process callers
/// would have seen as a thrown exception.
///
/// Layout: u8 status | u16 reason length + bytes | 10 doubles (u64 IEEE-754
/// bits each): recv_ms, admit_ms, queue_ms, seal_ms, dispatch_ms,
/// compute_ms, drain_ms, total_ms, stall_ms, latency_ms | u32 result
/// count | per result: u8 stage + u32 hit count + per hit (u64 position,
/// u32 diffs, u8 strand) | u32 SAM length + bytes (empty unless the
/// request set want_sam and aligned successfully).
struct WireAlignResponse {
  std::uint8_t status = 0;  ///< serve::RequestStatus ordinal, or 4 = error.
  std::string reason;
  obs::LatencyBreakdown breakdown;  ///< S45 attribution, wire-carried.
  double latency_ms = 0.0;
  std::vector<align::AlignmentResult> results;
  std::string sam;  ///< Rendered SAM records ("" unless requested).

  bool ok() const { return status == 0; }
};

inline constexpr std::uint8_t kWireStatusError = 4;

const char* wire_status_name(std::uint8_t status);

/// An error frame's payload: which field of the offending frame failed,
/// and a human-readable message.
/// Layout: u16 field length + bytes | u16 message length + bytes.
struct WireError {
  std::string field;
  std::string message;
};

std::vector<std::uint8_t> encode_align_request(const WireAlignRequest& request);
/// False on malformed payload; `error_field` then names the offending
/// field ("priority", "reference_id", "read_count", "read_length",
/// "payload" for trailing garbage / truncation).
bool decode_align_request(const std::vector<std::uint8_t>& payload,
                          WireAlignRequest* out, std::string* error_field);

std::vector<std::uint8_t> encode_align_response(
    const WireAlignResponse& response);
bool decode_align_response(const std::vector<std::uint8_t>& payload,
                           WireAlignResponse* out, std::string* error_field);

std::vector<std::uint8_t> encode_error(const WireError& error);
bool decode_error(const std::vector<std::uint8_t>& payload, WireError* out);

}  // namespace pim::net
