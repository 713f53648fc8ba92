#include "serve/protocol.h"

#include <cmath>

#include "snapshot/codec.h"

namespace dspot {

namespace {

/// Each values entry costs at least 8 payload bytes, so this bound is
/// loose but allocation-safe under the frame cap.
constexpr uint64_t kMaxValues = kServeMaxFrameBytes / 8;

/// A maximal forecast reply (kServeMaxForecastTicks values plus the fixed
/// header fields) must still fit one frame, or the engine could produce a
/// reply AppendFrame has to reject.
static_assert(kServeMaxForecastTicks * 8 + 4096 <= kServeMaxFrameBytes,
              "forecast cap exceeds the wire frame cap");

Status CheckTag(ByteReader& r, uint32_t want, const char* kind) {
  DSPOT_ASSIGN_OR_RETURN(uint32_t tag, r.GetU32());
  if (tag != want) {
    return r.CorruptAt(std::string("bad ") + kind + " frame tag " +
                       std::to_string(tag) + " (want " + std::to_string(want) +
                       ")");
  }
  return Status::Ok();
}

void PutValues(ByteWriter& w, const std::vector<double>& values) {
  w.PutU64(values.size());
  for (double v : values) {
    w.PutDouble(v);
  }
}

Status GetValues(ByteReader& r, std::vector<double>* values) {
  DSPOT_ASSIGN_OR_RETURN(uint64_t n, r.GetCount(kMaxValues, "values count"));
  values->resize(static_cast<size_t>(n));
  for (size_t i = 0; i < n; ++i) {
    DSPOT_ASSIGN_OR_RETURN((*values)[i], r.GetDouble());
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> EncodeRequestPayload(const ServeRequest& request) {
  ByteWriter w;
  w.PutU32(kServeRequestTag);
  w.PutU64(request.id);
  w.PutU32(static_cast<uint32_t>(request.op));
  w.PutString(request.keyword);
  w.PutU64(request.horizon);
  w.PutDouble(request.deadline_ms);
  PutValues(w, request.values);
  return std::move(w).TakeBytes();
}

std::vector<uint8_t> EncodeReplyPayload(const ServeReply& reply) {
  ByteWriter w;
  w.PutU32(kServeReplyTag);
  w.PutU64(reply.id);
  w.PutU32(static_cast<uint32_t>(reply.status.code()));
  w.PutString(reply.status.message());
  w.PutDouble(reply.rmse);
  w.PutDouble(reply.cost_bits);
  PutValues(w, reply.values);
  return std::move(w).TakeBytes();
}

StatusOr<ServeRequest> DecodeRequestPayload(const uint8_t* data, size_t size,
                                            const std::string& context) {
  ByteReader r(data, size, context);
  DSPOT_RETURN_IF_ERROR(CheckTag(r, kServeRequestTag, "request"));
  ServeRequest request;
  DSPOT_ASSIGN_OR_RETURN(request.id, r.GetU64());
  DSPOT_ASSIGN_OR_RETURN(uint32_t op, r.GetU32());
  if (ServeOpName(static_cast<ServeOp>(op)) == nullptr) {
    return r.InvalidAt("unknown serve op code " + std::to_string(op));
  }
  request.op = static_cast<ServeOp>(op);
  DSPOT_ASSIGN_OR_RETURN(request.keyword, r.GetString());
  DSPOT_ASSIGN_OR_RETURN(request.horizon, r.GetU64());
  DSPOT_ASSIGN_OR_RETURN(request.deadline_ms, r.GetDouble());
  // The deadline is an arbitrary f64 off the wire. A NaN, infinity, or
  // negative value must not reach deadline arming: NaN poisons every
  // comparison downstream, and a negative budget would silently alias
  // "use the server default" (the > 0 test) while the client believes it
  // set one.
  if (!std::isfinite(request.deadline_ms) || request.deadline_ms < 0.0) {
    return r.InvalidAt("deadline_ms " + std::to_string(request.deadline_ms) +
                       " is not a finite non-negative millisecond budget");
  }
  DSPOT_RETURN_IF_ERROR(GetValues(r, &request.values));
  if (r.remaining() != 0) {
    return r.CorruptAt(std::to_string(r.remaining()) +
                       " trailing bytes after request payload");
  }
  return request;
}

StatusOr<ServeReply> DecodeReplyPayload(const uint8_t* data, size_t size,
                                        const std::string& context) {
  ByteReader r(data, size, context);
  DSPOT_RETURN_IF_ERROR(CheckTag(r, kServeReplyTag, "reply"));
  ServeReply reply;
  DSPOT_ASSIGN_OR_RETURN(reply.id, r.GetU64());
  DSPOT_ASSIGN_OR_RETURN(uint32_t code, r.GetU32());
  if (code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
    return r.InvalidAt("unknown status code " + std::to_string(code));
  }
  DSPOT_ASSIGN_OR_RETURN(std::string message, r.GetString());
  reply.status = Status(static_cast<StatusCode>(code), std::move(message));
  DSPOT_ASSIGN_OR_RETURN(reply.rmse, r.GetDouble());
  DSPOT_ASSIGN_OR_RETURN(reply.cost_bits, r.GetDouble());
  DSPOT_RETURN_IF_ERROR(GetValues(r, &reply.values));
  if (r.remaining() != 0) {
    return r.CorruptAt(std::to_string(r.remaining()) +
                       " trailing bytes after reply payload");
  }
  return reply;
}

Status ValidateTenantName(const std::string& tenant) {
  if (tenant.empty()) {
    return Status::InvalidArgument(
        "tenant name is empty (omit the handshake for the default tenant)");
  }
  if (tenant.size() > kServeMaxTenantBytes) {
    return Status::InvalidArgument(
        "tenant name is " + std::to_string(tenant.size()) +
        " bytes, exceeding the cap of " +
        std::to_string(kServeMaxTenantBytes));
  }
  for (size_t i = 0; i < tenant.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(tenant[i]);
    // Printable non-space ASCII only: tenant names become map keys, log
    // lines, and metrics labels, so control bytes and spaces are refused
    // rather than escaped.
    if (c <= 0x20 || c >= 0x7f) {
      return Status::InvalidArgument(
          "tenant name byte " + std::to_string(i) + " (0x" +
          std::to_string(static_cast<unsigned>(c)) +
          ") is not printable non-space ASCII");
    }
  }
  return Status::Ok();
}

std::vector<uint8_t> EncodeHelloPayload(const std::string& tenant) {
  ByteWriter w;
  w.PutU32(kServeHelloTag);
  w.PutU32(kServeHelloVersion);
  w.PutString(tenant);
  return std::move(w).TakeBytes();
}

StatusOr<std::string> DecodeHelloPayload(const uint8_t* data, size_t size,
                                         const std::string& context) {
  ByteReader r(data, size, context);
  DSPOT_RETURN_IF_ERROR(CheckTag(r, kServeHelloTag, "hello"));
  DSPOT_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kServeHelloVersion) {
    return r.InvalidAt("unsupported handshake version " +
                       std::to_string(version) + " (this build speaks " +
                       std::to_string(kServeHelloVersion) + ")");
  }
  DSPOT_ASSIGN_OR_RETURN(std::string tenant, r.GetString());
  Status valid = ValidateTenantName(tenant);
  if (!valid.ok()) {
    return r.InvalidAt(valid.message());
  }
  if (r.remaining() != 0) {
    return r.CorruptAt(std::to_string(r.remaining()) +
                       " trailing bytes after hello payload");
  }
  return tenant;
}

Status AppendFrame(const std::vector<uint8_t>& payload,
                   std::vector<uint8_t>* out) {
  // Never emit a frame no reader will accept: a payload over the cap
  // would be rejected as DataLoss on the far side (and a length over
  // UINT32_MAX would silently truncate the prefix, desynchronizing the
  // whole stream).
  if (payload.size() > kServeMaxFrameBytes) {
    return Status::InvalidArgument(
        "serve frame: payload " + std::to_string(payload.size()) +
        " bytes exceeds cap " + std::to_string(kServeMaxFrameBytes) +
        "; frame not written");
  }
  const size_t at = out->size();
  out->resize(at + 4);
  StoreLe32(out->data() + at, static_cast<uint32_t>(payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
  return Status::Ok();
}

StatusOr<uint32_t> PeekPayloadTag(const uint8_t* data, size_t size,
                                  const std::string& context) {
  if (size < 4) {
    return Status::DataLoss(context + ": payload of " + std::to_string(size) +
                            " bytes is shorter than a frame tag");
  }
  return LoadLe32(data);
}

FrameAssembler::FrameAssembler(std::string context)
    : context_(std::move(context)) {}

void FrameAssembler::Append(const uint8_t* data, size_t n) {
  // Compact once the consumed prefix dominates the buffer, so a
  // long-lived connection's memory stays proportional to its largest
  // in-flight frame rather than its whole history.
  if (pos_ > 4096 && pos_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    consumed_ += pos_;
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

StatusOr<bool> FrameAssembler::Next(std::vector<uint8_t>* payload) {
  if (!poison_.ok()) {
    return poison_;
  }
  if (buf_.size() - pos_ < 4) {
    return false;
  }
  const uint32_t length = LoadLe32(buf_.data() + pos_);
  if (length > kServeMaxFrameBytes) {
    // Beyond this point no byte boundary can be trusted; poison the
    // stream instead of resynchronizing on garbage.
    poison_ = Status::DataLoss(
        context_ + ": byte " + std::to_string(stream_offset()) +
        ": frame length " + std::to_string(length) + " exceeds cap " +
        std::to_string(kServeMaxFrameBytes) + " (desynchronized stream?)");
    return poison_;
  }
  if (buf_.size() - pos_ - 4 < length) {
    return false;
  }
  payload->assign(buf_.begin() + static_cast<ptrdiff_t>(pos_ + 4),
                  buf_.begin() + static_cast<ptrdiff_t>(pos_ + 4 + length));
  pos_ += 4 + static_cast<size_t>(length);
  return true;
}

Status FrameAssembler::Finish() const {
  if (buffered() == 0) {
    return Status::Ok();
  }
  return Status::DataLoss(context_ + ": byte " +
                          std::to_string(stream_offset()) + ": " +
                          std::to_string(buffered()) +
                          " trailing bytes form an incomplete frame");
}

}  // namespace dspot
