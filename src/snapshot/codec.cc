#include "snapshot/codec.h"

#include <cstring>

namespace dspot {

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
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
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return v;
}

StatusOr<uint64_t> ByteReader::GetU64() {
  if (remaining() < 8) {
    return CorruptAt("truncated (need 8 bytes, have " +
                     std::to_string(remaining()) + ")");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[offset_ + i]) << (8 * i);
  }
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
