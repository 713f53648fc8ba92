#ifndef DSPOT_SNAPSHOT_CODEC_H_
#define DSPOT_SNAPSHOT_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/params.h"

namespace dspot {

/// Endian-stable primitives for every byte format the program writes:
/// snapshot, stream-state and spill-log files, WAL frames and serve wire
/// frames. Every multi-byte value is little-endian, so files are
/// identical across hosts; doubles travel as their IEEE-754 bit pattern.

/// Little-endian stores and loads at a raw pointer: the one place the
/// byte order is spelled out. Allocation-free, for fixed-layout frames.
inline void StoreLe32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline void StoreLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Length of a file magic; PutFileHeader follows it with a u32 version.
inline constexpr size_t kFileMagicBytes = 8;

/// Appends primitives to a growing byte buffer.
class ByteWriter {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutDouble(double v);
  /// u64 length prefix + raw bytes.
  void PutString(const std::string& s);
  void PutBytes(const void* data, size_t n);
  /// "u64 length | payload | u32 CRC-32 of the payload": the checksummed
  /// body of the snapshot, stream-state and checkpoint files.
  void PutChecksummed(const std::vector<uint8_t>& payload);
  /// "magic | u32 version": the header every dspot file starts with.
  void PutFileHeader(const char (&magic)[kFileMagicBytes], uint32_t version);
  /// One keyword's fitted model: fit_ticks, the seven global parameters,
  /// the cost in bits, the RMSE and the shocks (period, start, width,
  /// base strength, global strengths). The stream state stores a fitted
  /// keyword this way, and a spill-log record checksums one.
  void PutKeywordModel(const KeywordModel& model);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t>&& TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Reads primitives back, tracking the byte offset so corruption errors
/// can say exactly where decoding stopped. Reads past the end return
/// DataLoss with "<context>:<offset>" location information; `context` is
/// typically the file path.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, std::string context)
      : data_(data), size_(size), context_(std::move(context)) {}

  StatusOr<uint32_t> GetU32();
  StatusOr<uint64_t> GetU64();
  StatusOr<double> GetDouble();
  StatusOr<std::string> GetString();

  /// Like GetU64, but additionally rejects values above `max` — the guard
  /// that keeps a corrupted length prefix from driving a multi-gigabyte
  /// allocation before the checksum would have caught it.
  StatusOr<uint64_t> GetCount(uint64_t max, const char* what);

  /// Reads a PutChecksummed body and returns a view of its payload, without
  /// copying it. A length that overruns the buffer, a missing trailer or a
  /// CRC mismatch is DataLoss.
  StatusOr<std::span<const uint8_t>> GetChecksummed();

  /// Reads a PutFileHeader header. Another magic is InvalidArgument
  /// "<context>: not a dspot <what> (bad magic)", another version is
  /// InvalidArgument "<context>: unsupported <what> version <v> (this
  /// build reads version <version>)".
  Status GetFileHeader(const char (&magic)[kFileMagicBytes], uint32_t version,
                       const char* what);

  /// Reads a PutKeywordModel block. A fit_ticks above `max_fit_ticks`, an
  /// over-cap shock or strength count and a zero shock width are
  /// DataLoss. Shocks come back tagged keyword 0.
  Status GetKeywordModel(uint64_t max_fit_ticks, KeywordModel* model);

  size_t offset() const { return offset_; }
  size_t remaining() const { return size_ - offset_; }

  /// DataLoss tagged with the current offset ("<context>: offset <o>: ...").
  Status CorruptAt(const std::string& what) const;

  /// InvalidArgument with the same location tagging as CorruptAt — for
  /// well-formed payloads that carry a value this build refuses to honor
  /// (e.g. persisted options that violate a constructor invariant).
  Status InvalidAt(const std::string& what) const;

 private:
  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
  std::string context_;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) of `n` bytes.
uint32_t Crc32(const uint8_t* data, size_t n);

}  // namespace dspot

#endif  // DSPOT_SNAPSHOT_CODEC_H_
