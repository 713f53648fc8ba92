#ifndef DSPOT_SERVE_PROTOCOL_H_
#define DSPOT_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "serve/serve_engine.h"

namespace dspot {

/// The dspot_serve wire format: length-prefixed frames over a byte
/// stream (stdin/stdout or a TCP connection).
///
/// One frame = a little-endian u32 payload length followed by that many
/// payload bytes; AppendFrame is the one writer of that framing and
/// FrameAssembler the one reader. The payload reuses the snapshot codec's
/// primitives (ByteWriter/ByteReader) and leads with a tag word so a
/// reader can reject a stream of the wrong kind with a located error
/// instead of misparsing it:
///
///   request:  "DSRQ" id:u64 op:u32 keyword:str horizon:u64
///             deadline_ms:f64 values:u64+f64[]
///   reply:    "DSRP" id:u64 code:u32 message:str rmse:f64
///             cost_bits:f64 values:u64+f64[]
///
/// Encoding is canonical (no padding, no optional fields), so identical
/// replies are identical bytes — the determinism gates compare frames
/// directly.

/// Frame tags ("DSRQ" / "DSRP" / "DSRH" as little-endian u32). "DSRH" is
/// the optional tenant handshake a client may send as the FIRST frame of
/// a connection (TCP or stdin): `"DSRH" version:u32 tenant:str`. It binds
/// every later request on that connection to the named admission tenant;
/// without it the connection serves under the default tenant "".
inline constexpr uint32_t kServeRequestTag = 0x51525344;
inline constexpr uint32_t kServeReplyTag = 0x50525344;
inline constexpr uint32_t kServeHelloTag = 0x48525344;

/// Handshake protocol version this build speaks.
inline constexpr uint32_t kServeHelloVersion = 1;

/// Longest accepted tenant name, bytes. Tenant names feed quota maps,
/// log lines and metrics labels, so they are kept short and printable.
inline constexpr size_t kServeMaxTenantBytes = 128;

/// Upper bound on a frame's payload length; a declared length beyond it
/// is rejected as DataLoss (a desynchronized or hostile stream would
/// otherwise trigger a giant allocation).
inline constexpr uint32_t kServeMaxFrameBytes = 64u << 20;

/// Appends one frame — the u32 length prefix, then `payload` — to `*out`.
/// A payload over kServeMaxFrameBytes is InvalidArgument and appends
/// nothing: no reader would accept the frame.
Status AppendFrame(const std::vector<uint8_t>& payload,
                   std::vector<uint8_t>* out);

/// Payload-level codecs; AppendFrame adds the length prefix.
std::vector<uint8_t> EncodeRequestPayload(const ServeRequest& request);
std::vector<uint8_t> EncodeReplyPayload(const ServeReply& reply);
StatusOr<ServeRequest> DecodeRequestPayload(const uint8_t* data, size_t size,
                                            const std::string& context);
StatusOr<ServeReply> DecodeReplyPayload(const uint8_t* data, size_t size,
                                        const std::string& context);

/// Tenant handshake codec. ValidateTenantName enforces the shared rule
/// (1..kServeMaxTenantBytes printable non-space ASCII bytes) for both the
/// decoder and the CLI's --tenant flag.
Status ValidateTenantName(const std::string& tenant);
std::vector<uint8_t> EncodeHelloPayload(const std::string& tenant);
StatusOr<std::string> DecodeHelloPayload(const uint8_t* data, size_t size,
                                         const std::string& context);

/// The leading tag word of a decoded payload (kServeRequestTag, ...);
/// located DataLoss when the payload is shorter than a tag. Transports
/// use it to route a frame before committing to a payload decoder.
StatusOr<uint32_t> PeekPayloadTag(const uint8_t* data, size_t size,
                                  const std::string& context);

/// Incremental frame reassembly for transports that deliver the byte
/// stream in arbitrary chunks (TCP segments, pipe reads): Append() bytes
/// as they arrive, then pop complete payloads with Next() until it
/// reports that more bytes are needed. Frames split at ANY byte boundary
/// — mid-prefix, mid-payload — reassemble exactly; a declared length over
/// kServeMaxFrameBytes poisons the assembler with a located DataLoss
/// (the stream is desynchronized or hostile, and no later byte can be
/// trusted).
class FrameAssembler {
 public:
  /// `context` labels errors (e.g. "conn 127.0.0.1:51724" or "stdin").
  explicit FrameAssembler(std::string context);

  /// Appends raw stream bytes. Internal storage compacts as frames are
  /// consumed, so long-lived connections stay at O(largest frame).
  void Append(const uint8_t* data, size_t n);

  /// Ok(true): one complete frame payload moved into `*payload`.
  /// Ok(false): the buffered bytes end mid-frame — Append more.
  /// DataLoss: desynchronized (over-cap declared length); every later
  /// call returns the same error.
  StatusOr<bool> Next(std::vector<uint8_t>* payload);

  /// Call at end of input. Ok when the stream ended on a frame boundary;
  /// DataLoss "<context>: byte <N>: <K> trailing bytes form an incomplete
  /// frame" when it ended inside one.
  Status Finish() const;

  /// Bytes currently buffered (a partial frame, or zero at a boundary).
  size_t buffered() const { return buf_.size() - pos_; }

  /// Absolute stream offset of the first unconsumed byte — the location
  /// error messages point at.
  uint64_t stream_offset() const { return consumed_ + pos_; }

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;        ///< parse cursor inside buf_
  uint64_t consumed_ = 0; ///< bytes compacted away before buf_[0]
  std::string context_;
  Status poison_ = Status::Ok();
};

}  // namespace dspot

#endif  // DSPOT_SERVE_PROTOCOL_H_
