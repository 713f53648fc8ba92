#ifndef DSPOT_SNAPSHOT_CODEC_H_
#define DSPOT_SNAPSHOT_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"

namespace dspot {

/// Endian-stable primitives for the snapshot payload. Every multi-byte
/// value is written little-endian byte by byte, so files are identical
/// across hosts; doubles travel as their IEEE-754 bit pattern.

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
