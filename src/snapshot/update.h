#ifndef DSPOT_SNAPSHOT_UPDATE_H_
#define DSPOT_SNAPSHOT_UPDATE_H_

#include <cstddef>
#include <vector>

#include "common/statusor.h"
#include "core/dspot.h"
#include "snapshot/snapshot.h"
#include "tensor/activity_tensor.h"

namespace dspot {

struct UpdateResult {
  DspotResult result;
  /// Per keyword: true iff the burst detector fired and full shock
  /// re-detection ran (false = cached schedule reused).
  std::vector<bool> redetected;
  /// Ticks appended beyond the snapshot's training range.
  size_t appended_ticks = 0;
};

/// Absorbs newly appended ticks into a previously fitted (snapshot-loaded)
/// model without re-running the full MDL search. `tensor`'s leading
/// `model.params.num_ticks` ticks are the data the model was fit on, the
/// rest are new; it must carry the model's keyword/location counts
/// (InvalidArgument otherwise). Every keyword is warm-refit from its
/// previous model; new shock detection runs only where HasResidualBurst
/// (timeseries/peaks.h) fires on the appended window, so quiet keywords
/// keep their shock inventory. With zero appended ticks this is a plain
/// warm refit. `options.global.warm_start` is ignored: UpdateFit seeds
/// itself.
StatusOr<UpdateResult> UpdateFit(const ModelSnapshot& model,
                                 const ActivityTensor& tensor,
                                 const DspotOptions& options = {});

/// Concatenates `extra`'s ticks directly after `base`'s. Keyword and
/// location labels must match position for position (InvalidArgument
/// names the first mismatch otherwise).
///
/// `extra_first_tick` declares where `extra`'s tick 0 belongs on `base`'s
/// tick axis. The only valid placement is `base.num_ticks()` — exactly one
/// past the existing range; anything smaller means `extra` re-delivers
/// ticks `base` already holds (duplicate/out-of-order timestamps) and
/// anything larger leaves an unobserved gap, both rejected with a located
/// InvalidArgument instead of silently mis-stitching the time axis.
/// Passing `kNpos` (the default) asserts the caller already normalized
/// `extra` to start directly after `base` (the historical contract of
/// relative-tick append files).
StatusOr<ActivityTensor> ConcatTicks(const ActivityTensor& base,
                                     const ActivityTensor& extra,
                                     size_t extra_first_tick = kNpos);

}  // namespace dspot

#endif  // DSPOT_SNAPSHOT_UPDATE_H_
