#ifndef DSPOT_SNAPSHOT_SNAPSHOT_H_
#define DSPOT_SNAPSHOT_SNAPSHOT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "core/dspot.h"
#include "core/params.h"
#include "guard/guard.h"
#include "tensor/activity_tensor.h"
#include "tensor/normalization.h"

namespace dspot {

/// Versioned, endian-stable persistence for fitted Δ-SPOT models — the
/// substrate for serving: fit once, save, then load to forecast,
/// warm-start a refit, or absorb newly arrived ticks (see update.h).
///
/// Two interchangeable backends share one *canonical payload*: the
/// little-endian binary encoding of the model. The binary file stores
/// that payload directly (magic + version + length + payload + CRC-32);
/// the JSON file stores the same fields as human-readable JSON plus the
/// CRC of the canonical payload. A JSON load re-encodes the parsed model
/// canonically and compares checksums, so *both* backends detect
/// corruption and agree bit for bit: load(binary) == load(json) exactly.

/// Everything needed to resume serving a fitted model: the parameter set,
/// the tensor's labels, the per-keyword normalization applied before
/// fitting, and the fit's quality/health summary.
struct ModelSnapshot {
  ModelParamSet params;
  std::vector<std::string> keywords;
  std::vector<std::string> locations;
  /// Per-keyword normalization factors (empty when the tensor was fit
  /// unnormalized). Needed to map forecasts back to original units.
  std::vector<ScaleInfo> scales;
  /// Per-keyword in-sample RMSE and the model's total MDL cost.
  std::vector<double> global_rmse;
  double total_cost_bits = 0.0;
  FitHealth health;
};

/// Assembles a snapshot from a fit result and the tensor it was fit on
/// (labels come from the tensor). `scales` may be empty.
ModelSnapshot MakeSnapshot(const DspotResult& result,
                           const ActivityTensor& tensor,
                           const std::vector<ScaleInfo>& scales = {});

enum class SnapshotFormat {
  kBinary,  ///< "DSPOTSNP" magic, canonical payload, CRC-32 trailer
  kJson,    ///< same fields as JSON; carries the canonical payload's CRC
};

/// Current (and only) payload format version.
inline constexpr uint32_t kSnapshotVersion = 1;

/// Writes `snapshot` to `path`. Binary files are byte-identical across
/// hosts for identical models.
Status SaveSnapshot(const ModelSnapshot& snapshot, const std::string& path,
                    SnapshotFormat format = SnapshotFormat::kBinary);

/// Reads a snapshot, sniffing the format from the leading bytes. Errors
/// carry location context:
///  * bad magic / not a snapshot        -> InvalidArgument
///  * unsupported (future) version      -> InvalidArgument, names both
///  * truncation, checksum mismatch,
///    or impossible embedded values     -> DataLoss with "<path>: offset"
/// A non-OK load never returns a partially decoded model.
StatusOr<ModelSnapshot> LoadSnapshot(const std::string& path);

/// The canonical payload bytes of `snapshot` (exposed for tests and for
/// the JSON backend's checksum; stable across hosts).
std::vector<uint8_t> EncodeSnapshotPayload(const ModelSnapshot& snapshot);

/// The complete binary-file bytes of `snapshot` — magic, version, length,
/// payload, CRC-32 — i.e. exactly what SaveSnapshot(kBinary) writes, and
/// SaveSnapshot writes through it. Tests pair it with DecodeSnapshotFile
/// as the in-memory binary decoder. (The serve registry's spill log holds
/// keyword models, not this image.)
std::vector<uint8_t> EncodeSnapshotFile(const ModelSnapshot& snapshot);

/// The inverse of EncodeSnapshotFile: decodes a binary snapshot image held
/// in memory, with LoadSnapshot's error contract (bad magic or a future
/// version is InvalidArgument; truncation, a checksum mismatch or an
/// impossible value is DataLoss). `context` prefixes every error (a path,
/// or a path plus the image's offset inside a larger file).
StatusOr<ModelSnapshot> DecodeSnapshotFile(const uint8_t* data, size_t size,
                                           const std::string& context);

}  // namespace dspot

#endif  // DSPOT_SNAPSHOT_SNAPSHOT_H_
