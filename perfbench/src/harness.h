#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing for the repo benchmark: arguments, the result every
// workload fills in, the metric catalogs, scratch directories and the
// dspot_obs readers the traced runs use.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) {
  return SecondsSince(t0) * 1e3;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase of one run.
  double seconds = 10.0;
  /// Arms dspot_obs for an extra traced phase and reports per-layer metrics.
  bool trace = false;
  /// Tiny inputs, for the benchmark's own tests.
  bool smoke = false;
  /// Parent of the per-run scratch directory and of the written reports.
  std::string work_dir = ".bench_build/perfbench-work";
  std::string git_sha = "unknown";
};

/// One per-layer metric: its unit and the end-to-end metric (and
/// workload) a change in this layer should move.
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;
};

/// Every end-to-end metric, as {name, unit}. Each workload reports all of
/// them; each workload's source file says what they mean for it.
const std::vector<std::pair<const char*, const char*>>& EndToEndCatalog();
const std::vector<LayerSpec>& LayerCatalog();

/// What one run measured and whether its outputs were right.
class Result {
 public:
  /// Records a correctness gate; a failed gate makes the run incorrect.
  void Gate(bool ok, const std::string& what);
  void Attempt(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void SetEndToEnd(const std::string& name, double value);
  /// setup_s: the median of the set-up samples, which the report lists.
  void SetSetup(const std::vector<double>& samples_s);
  void SetLayer(const std::string& name, double value);
  /// A named figure of the workload printed in the report (its own names
  /// such as fit_s or capacity_rps), with its unit.
  void SetReport(const std::string& name, double value,
                 const std::string& unit);
  void Note(const std::string& line);
  /// The workload's thread counts, for the provenance record.
  void SetThreads(const std::string& threads) { threads_ = threads; }
  const std::string& threads() const { return threads_; }

  /// Prints the human-readable report to stdout and writes it, with the
  /// per-layer table, to `path` as JSON.
  void PrintReport(const Args& args, const std::string& provenance_json,
                   const std::string& path) const;
  /// The one-line machine-readable result: every end-to-end metric, or every
  /// per-layer metric when `traced`.
  std::string ResultLine(bool traced) const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> report_;
  std::vector<std::string> gates_;
  std::vector<std::string> notes_;
  std::string threads_;
};

/// A fresh directory under `parent`, removed with everything in it on
/// destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent, const std::string& prefix);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Flushes the filesystem holding `path`, so a timed set-up step does not
/// also pay for writing back what an earlier one left dirty.
void SyncFilesystem(const std::string& path);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// splitmix64, the benchmark's input generator.
uint64_t Mix(uint64_t x);

// --- dspot_obs readers (traced phases) -----------------------------------

/// Sum of a span histogram, milliseconds (0 when never recorded).
double HistogramSumMs(const dspot::ObsSnapshot& snap, std::string_view name);

/// Total duration of `outer` trace spans minus the parts covered by
/// `inner` spans recorded on the same thread inside them — the outer
/// layer's self time, milliseconds.
double SelfTimeMs(const std::vector<dspot::TraceEvent>& events,
                  std::string_view outer,
                  const std::vector<std::string_view>& inner);

/// Sets the optimize.*, parallel.* and shared core.* layer metrics from a
/// traced phase that ran `wall_s` seconds on `threads` workers.
void SetFitLayerMetrics(const dspot::ObsSnapshot& snap,
                        const std::vector<dspot::TraceEvent>& events,
                        double wall_s, size_t threads, double passes,
                        Result* result);

/// Median microseconds of SimulateGlobalInto over keyword 0 of `set`, as
/// a served forecast runs it (fresh schedule cache per call).
double SimulateGlobalUs(const dspot::ModelParamSet& set);

/// Writes the registry's Chrome trace next to the report.
void WriteTrace(const std::string& path, Result* result);

// --- workloads ------------------------------------------------------------

void RunFitCold(const Args& args, Result* result);
void RunStreamIngest(const Args& args, Result* result);
void RunServeSpill(const Args& args, Result* result);
void RunServeResident(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
