#include "durable/wal.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "snapshot/codec.h"

namespace dspot {

namespace {

bool ValidType(uint8_t type) {
  return type >= static_cast<uint8_t>(WalRecordType::kIntern) &&
         type <= static_cast<uint8_t>(WalRecordType::kCheckpointRef);
}

/// Attempts to parse the frame at `data[off..]`. Returns true and fills
/// `*rec` / `*frame_len` iff the frame is structurally valid and its CRC
/// matches. Never reads past `size`.
bool TryParseFrame(const uint8_t* data, size_t size, size_t off,
                   WalRecord* rec, size_t* frame_len) {
  if (off + kWalFrameBytes > size) {
    return false;
  }
  const uint8_t* frame = data + off;
  const uint32_t type_ext = LoadLe32(frame + 4);
  const uint8_t type = static_cast<uint8_t>(type_ext & 0xff);
  const size_t ext_len = static_cast<size_t>(type_ext >> 8);
  if (!ValidType(type) || ext_len % 8 != 0 || ext_len > kWalMaxExtBytes) {
    return false;
  }
  const size_t total = kWalFrameBytes + ext_len;
  if (off + total > size) {
    return false;
  }
  const uint32_t stored_crc = LoadLe32(frame);
  const uint32_t crc = Crc32(frame + 4, total - 4);
  if (crc != stored_crc) {
    return false;
  }
  rec->type = static_cast<WalRecordType>(type);
  rec->seq = LoadLe64(frame + 8);
  rec->a = LoadLe64(frame + 16);
  rec->b = LoadLe64(frame + 24);
  rec->c = LoadLe64(frame + 32);
  rec->name.clear();
  if (ext_len > 0) {
    // The extension is the name zero-padded to 8 bytes; the name stops at
    // the first NUL (names themselves never contain NUL).
    const char* ext = reinterpret_cast<const char*>(frame + kWalFrameBytes);
    size_t name_len = ext_len;
    while (name_len > 0 && ext[name_len - 1] == '\0') {
      --name_len;
    }
    rec->name.assign(ext, name_len);
  }
  *frame_len = total;
  return true;
}

}  // namespace

StatusOr<WalWriter> WalWriter::Open(const std::string& path,
                                    uint64_t next_seq,
                                    const RetryPolicy& retry) {
  StatusOr<DurableFile> file = DurableFile::OpenAppend(path, retry);
  if (!file.ok()) {
    return file.status();
  }
  return WalWriter(std::move(*file), next_seq);
}

Status WalWriter::Append(WalRecordType type, uint64_t a, uint64_t b,
                         uint64_t c, std::string_view name,
                         uint64_t* seq_out) {
  if (!name.empty() && type != WalRecordType::kIntern) {
    return Status::Internal("WalWriter: only kIntern records carry a name");
  }
  if (name.size() > kWalMaxExtBytes - 8) {
    return Status::InvalidArgument(
        "WalWriter: keyword name of " + std::to_string(name.size()) +
        " bytes exceeds the WAL extension cap");
  }
  // Pad so a NUL always terminates the name (a name of exactly ext_len
  // bytes would otherwise be ambiguous with its own padding).
  const size_t ext_len = name.empty() ? 0 : ((name.size() / 8) + 1) * 8;
  const size_t total = kWalFrameBytes + ext_len;
  frame_.assign(total, 0);
  const uint64_t seq = next_seq_;
  const uint32_t type_ext =
      static_cast<uint32_t>(type) | static_cast<uint32_t>(ext_len) << 8;
  uint8_t* frame = frame_.data();
  StoreLe32(frame + 4, type_ext);
  StoreLe64(frame + 8, seq);
  StoreLe64(frame + 16, a);
  StoreLe64(frame + 24, b);
  StoreLe64(frame + 32, c);
  if (!name.empty()) {
    std::memcpy(frame + kWalFrameBytes, name.data(), name.size());
  }
  StoreLe32(frame, Crc32(frame + 4, total - 4));
  DSPOT_RETURN_IF_ERROR(file_.WriteAll(frame_.data(), total));
  ++next_seq_;
  if (seq_out != nullptr) {
    *seq_out = seq;
  }
  DSPOT_COUNT("wal.records", 1);
  DSPOT_COUNT("wal.bytes", total);
  return Status::Ok();
}

StatusOr<WalSegmentScan> ReadWalSegment(const std::string& path,
                                        uint64_t expected_first_seq,
                                        bool allow_torn_tail) {
  DSPOT_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  const size_t size = bytes.size();

  WalSegmentScan scan;
  uint64_t next_seq = expected_first_seq;
  size_t off = 0;
  while (off < size) {
    WalRecord rec;
    size_t frame_len = 0;
    if (TryParseFrame(data, size, off, &rec, &frame_len)) {
      if (rec.seq != next_seq) {
        return Status::DataLoss(
            path + ": offset " + std::to_string(off) +
            ": record carries sequence " + std::to_string(rec.seq) +
            " where " + std::to_string(next_seq) +
            " was expected — the log has a gap or was spliced");
      }
      scan.records.push_back(std::move(rec));
      ++next_seq;
      off += frame_len;
      scan.valid_bytes = off;
      continue;
    }
    // Invalid frame. Torn tail iff nothing valid follows it — scan ahead
    // at the 8-byte granularity every real frame is aligned to.
    for (size_t probe = off + 8; probe + kWalFrameBytes <= size;
         probe += 8) {
      WalRecord ahead;
      size_t ahead_len = 0;
      if (TryParseFrame(data, size, probe, &ahead, &ahead_len)) {
        return Status::DataLoss(
            path + ": offset " + std::to_string(off) +
            ": corrupt record followed by a valid one at offset " +
            std::to_string(probe) +
            " — mid-log corruption, not a torn tail");
      }
    }
    if (!allow_torn_tail) {
      return Status::DataLoss(
          path + ": offset " + std::to_string(off) +
          ": corrupt record in a non-final WAL segment");
    }
    scan.truncated_bytes = size - off;
    break;
  }
  return scan;
}

}  // namespace dspot
