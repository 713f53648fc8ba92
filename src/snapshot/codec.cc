#include "snapshot/codec.h"

#include <cstring>

namespace dspot {

namespace {

// Decode-time allocation guards for a keyword model (the checksum would
// catch the corruption, but only after a bogus length prefix already
// drove a huge allocation).
constexpr uint64_t kMaxShocksPerKeyword = 1u << 16;
constexpr uint64_t kMaxStrengthsPerShock = 1u << 24;

}  // namespace

void ByteWriter::PutU32(uint32_t v) {
  const size_t at = bytes_.size();
  bytes_.resize(at + 4);
  StoreLe32(bytes_.data() + at, v);
}

void ByteWriter::PutU64(uint64_t v) {
  const size_t at = bytes_.size();
  bytes_.resize(at + 8);
  StoreLe64(bytes_.data() + at, v);
}

void ByteWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutString(const std::string& s) {
  PutU64(s.size());
  PutBytes(s.data(), s.size());
}

void ByteWriter::PutBytes(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

void ByteWriter::PutChecksummed(const std::vector<uint8_t>& payload) {
  PutU64(payload.size());
  PutBytes(payload.data(), payload.size());
  PutU32(Crc32(payload.data(), payload.size()));
}

void ByteWriter::PutFileHeader(const char (&magic)[kFileMagicBytes],
                               uint32_t version) {
  PutBytes(magic, kFileMagicBytes);
  PutU32(version);
}

void ByteWriter::PutKeywordModel(const KeywordModel& model) {
  const KeywordGlobalParams& params = model.params;
  PutU64(model.fit_ticks);
  PutDouble(params.population);
  PutDouble(params.beta);
  PutDouble(params.delta);
  PutDouble(params.gamma);
  PutDouble(params.i0);
  PutDouble(params.growth_rate);
  PutU64(params.growth_start);
  PutDouble(model.cost_bits);
  PutDouble(model.rmse);
  PutU64(model.shocks.size());
  for (const Shock& shock : model.shocks) {
    PutU64(shock.period);
    PutU64(shock.start);
    PutU64(shock.width);
    PutDouble(shock.base_strength);
    PutU64(shock.global_strengths.size());
    for (const double s : shock.global_strengths) {
      PutDouble(s);
    }
  }
}

Status ByteReader::CorruptAt(const std::string& what) const {
  return Status::DataLoss(context_ + ": offset " + std::to_string(offset_) +
                          ": " + what);
}

Status ByteReader::InvalidAt(const std::string& what) const {
  return Status::InvalidArgument(context_ + ": offset " +
                                 std::to_string(offset_) + ": " + what);
}

StatusOr<uint32_t> ByteReader::GetU32() {
  if (remaining() < 4) {
    return CorruptAt("truncated (need 4 bytes, have " +
                     std::to_string(remaining()) + ")");
  }
  const uint32_t v = LoadLe32(data_ + offset_);
  offset_ += 4;
  return v;
}

StatusOr<uint64_t> ByteReader::GetU64() {
  if (remaining() < 8) {
    return CorruptAt("truncated (need 8 bytes, have " +
                     std::to_string(remaining()) + ")");
  }
  const uint64_t v = LoadLe64(data_ + offset_);
  offset_ += 8;
  return v;
}

StatusOr<double> ByteReader::GetDouble() {
  DSPOT_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

StatusOr<std::string> ByteReader::GetString() {
  // The bytes must fit in what is left after the 8-byte length itself.
  DSPOT_ASSIGN_OR_RETURN(
      uint64_t len,
      GetCount(remaining() > 8 ? remaining() - 8 : 0, "string length"));
  std::string s(reinterpret_cast<const char*>(data_ + offset_),
                static_cast<size_t>(len));
  offset_ += static_cast<size_t>(len);
  return s;
}

StatusOr<uint64_t> ByteReader::GetCount(uint64_t max, const char* what) {
  const size_t at = offset_;
  DSPOT_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  if (v > max) {
    // Report the offset of the bad count itself, not the position past it.
    return Status::DataLoss(context_ + ": offset " + std::to_string(at) +
                            ": " + what + " " + std::to_string(v) +
                            " exceeds limit " + std::to_string(max));
  }
  return v;
}

StatusOr<std::span<const uint8_t>> ByteReader::GetChecksummed() {
  // The cap is taken before the length is read, so it leaves room for the
  // 8-byte length itself and the 4-byte CRC trailer.
  DSPOT_ASSIGN_OR_RETURN(
      const uint64_t len,
      GetCount(remaining() > 12 ? remaining() - 12 : 0, "payload length"));
  const size_t at = offset_;
  const std::span<const uint8_t> payload(data_ + at, static_cast<size_t>(len));
  offset_ += payload.size();
  DSPOT_ASSIGN_OR_RETURN(const uint32_t stored_crc, GetU32());
  const uint32_t crc = Crc32(payload.data(), payload.size());
  if (crc != stored_crc) {
    return Status::DataLoss(context_ + ": offset " + std::to_string(at) +
                            ": payload checksum mismatch (stored " +
                            std::to_string(stored_crc) + ", computed " +
                            std::to_string(crc) + ")");
  }
  return payload;
}

Status ByteReader::GetFileHeader(const char (&magic)[kFileMagicBytes],
                                 uint32_t version, const char* what) {
  if (remaining() < kFileMagicBytes ||
      std::memcmp(data_ + offset_, magic, kFileMagicBytes) != 0) {
    return Status::InvalidArgument(context_ + ": not a dspot " + what +
                                   " (bad magic)");
  }
  offset_ += kFileMagicBytes;
  DSPOT_ASSIGN_OR_RETURN(const uint32_t stored, GetU32());
  if (stored != version) {
    return Status::InvalidArgument(
        context_ + ": unsupported " + what + " version " +
        std::to_string(stored) + " (this build reads version " +
        std::to_string(version) + ")");
  }
  return Status::Ok();
}

Status ByteReader::GetKeywordModel(uint64_t max_fit_ticks,
                                   KeywordModel* model) {
  KeywordGlobalParams* params = &model->params;
  DSPOT_ASSIGN_OR_RETURN(model->fit_ticks,
                         GetCount(max_fit_ticks, "fit ticks"));
  DSPOT_ASSIGN_OR_RETURN(params->population, GetDouble());
  DSPOT_ASSIGN_OR_RETURN(params->beta, GetDouble());
  DSPOT_ASSIGN_OR_RETURN(params->delta, GetDouble());
  DSPOT_ASSIGN_OR_RETURN(params->gamma, GetDouble());
  DSPOT_ASSIGN_OR_RETURN(params->i0, GetDouble());
  DSPOT_ASSIGN_OR_RETURN(params->growth_rate, GetDouble());
  DSPOT_ASSIGN_OR_RETURN(params->growth_start, GetU64());
  DSPOT_ASSIGN_OR_RETURN(model->cost_bits, GetDouble());
  DSPOT_ASSIGN_OR_RETURN(model->rmse, GetDouble());
  DSPOT_ASSIGN_OR_RETURN(const uint64_t num_shocks,
                         GetCount(kMaxShocksPerKeyword, "shock count"));
  model->shocks.assign(num_shocks, Shock());
  for (Shock& shock : model->shocks) {
    shock.keyword = 0;
    DSPOT_ASSIGN_OR_RETURN(shock.period, GetU64());
    DSPOT_ASSIGN_OR_RETURN(shock.start, GetU64());
    DSPOT_ASSIGN_OR_RETURN(shock.width, GetU64());
    if (shock.width == 0) {
      return CorruptAt("shock width 0");
    }
    DSPOT_ASSIGN_OR_RETURN(shock.base_strength, GetDouble());
    DSPOT_ASSIGN_OR_RETURN(
        const uint64_t num_strengths,
        GetCount(kMaxStrengthsPerShock, "strength count"));
    shock.global_strengths.resize(num_strengths);
    for (double& s : shock.global_strengths) {
      DSPOT_ASSIGN_OR_RETURN(s, GetDouble());
    }
  }
  return Status::Ok();
}

uint32_t Crc32(const uint8_t* data, size_t n) {
  // Table-driven CRC-32 (reflected 0xEDB88320), computed once.
  static const auto table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace dspot
