#ifndef DSPOT_BENCH_BENCH_UTIL_H_
#define DSPOT_BENCH_BENCH_UTIL_H_

// Shared helpers for the benches: ASCII sparklines (so each "figure" is
// eyeballable in a terminal), calendar rendering for the weekly
// GoogleTrends-style time axis, and the machine-readable BENCH_<name>.json
// emitter the CI perf trajectory ingests.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "core/shock.h"
#include "timeseries/series.h"

namespace dspot {
namespace bench {

/// Peak resident set size of this process in bytes (0 where unavailable).
/// getrusage reports ru_maxrss in KiB on Linux and bytes on macOS; the
/// number is monotone over the process lifetime, so sampling it at export
/// time captures the high-water mark of the whole bench run.
inline double PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss);
#else
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
#endif
#else
  return 0.0;
#endif
}

/// Machine-readable bench results: top-level scalar metrics plus an
/// optional array of per-configuration rows, written as one JSON document
/// ({"bench": ..., "metrics": {...}, "rows": [{...}, ...]}). Insertion
/// order is preserved so diffs between runs line up; non-finite values
/// are emitted as null (JSON has no NaN/inf).
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Set(const std::string& key, double value) {
    metrics_.emplace_back(key, Number(value));
  }
  void Set(const std::string& key, const std::string& value) {
    metrics_.emplace_back(key, Quote(value));
  }

  /// Starts a new row; subsequent SetRow calls fill it.
  void AddRow() { rows_.emplace_back(); }
  void SetRow(const std::string& key, double value) {
    rows_.back().emplace_back(key, Number(value));
  }
  void SetRow(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, Quote(value));
  }

  /// Writes the document; complains on stderr and returns false on I/O
  /// failure (benches report but do not abort on a failed export).
  bool WriteTo(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "bench json: cannot open %s\n", path.c_str());
      return false;
    }
    // Every exported document carries the process peak RSS, sampled at
    // export time, so the CI perf trajectory tracks memory alongside
    // wall-clock without each bench opting in.
    Fields metrics = metrics_;
    metrics.emplace_back("peak_rss_bytes", Number(PeakRssBytes()));
    os << "{\n  \"bench\": " << Quote(name_) << ",\n  \"metrics\": {";
    WriteFields(os, metrics, "    ");
    os << "  }";
    if (!rows_.empty()) {
      os << ",\n  \"rows\": [\n";
      for (size_t r = 0; r < rows_.size(); ++r) {
        os << "    {";
        WriteFields(os, rows_[r], "      ");
        os << "    }" << (r + 1 < rows_.size() ? "," : "") << "\n";
      }
      os << "  ]";
    }
    os << "\n}\n";
    os.flush();
    if (!os) {
      std::fprintf(stderr, "bench json: write failed: %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  static std::string Number(double value) {
    if (!std::isfinite(value)) {
      return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return buf;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    out += '"';
    return out;
  }

  static void WriteFields(std::ofstream& os, const Fields& fields,
                          const char* indent) {
    os << "\n";
    for (size_t i = 0; i < fields.size(); ++i) {
      os << indent << Quote(fields[i].first) << ": " << fields[i].second
         << (i + 1 < fields.size() ? "," : "") << "\n";
    }
  }

  std::string name_;
  Fields metrics_;
  std::vector<Fields> rows_;
};

/// Renders `s` as a one-line ASCII sparkline of `columns` buckets
/// (max-pooled so narrow spikes stay visible).
inline std::string Sparkline(const Series& s, size_t columns = 96) {
  static const char kLevels[] = " .:-=+*#%@";
  constexpr size_t kNumLevels = sizeof(kLevels) - 2;  // last index
  if (s.empty()) {
    return "";
  }
  const double lo = std::min(0.0, s.MinValue());
  const double hi = std::max(s.MaxValue(), lo + 1e-9);
  std::string out;
  columns = std::min(columns, s.size());
  for (size_t c = 0; c < columns; ++c) {
    const size_t begin = c * s.size() / columns;
    const size_t end = std::max(begin + 1, (c + 1) * s.size() / columns);
    double bucket = 0.0;
    for (size_t t = begin; t < end && t < s.size(); ++t) {
      if (s.IsObserved(t)) bucket = std::max(bucket, s[t]);
    }
    const double frac = (bucket - lo) / (hi - lo);
    out += kLevels[static_cast<size_t>(frac * kNumLevels + 0.5)];
  }
  return out;
}

/// Prints an original/fitted sparkline pair with a label.
inline void PrintFitPair(const std::string& label, const Series& data,
                         const Series& estimate) {
  std::printf("%-18s data |%s|\n", label.c_str(),
              Sparkline(data).c_str());
  std::printf("%-18s fit  |%s|\n", "", Sparkline(estimate).c_str());
}

/// Week tick -> "YYYY-Mon" label on the paper's axis (tick 0 = Jan 2004,
/// 52 ticks per year).
inline std::string WeekToCalendar(size_t tick) {
  static const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                  "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  const size_t year = 2004 + tick / 52;
  const size_t week = tick % 52;
  const size_t month = std::min<size_t>(week * 12 / 52, 11);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%zu-%s", year, kMonths[month]);
  return buf;
}

/// Human description of a detected shock on the weekly calendar axis.
inline std::string DescribeEvent(const Shock& shock) {
  std::string out;
  if (shock.IsCyclic()) {
    const double years = static_cast<double>(shock.period) / 52.0;
    char buf[64];
    if (shock.period % 52 <= 2 || shock.period % 52 >= 50) {
      std::snprintf(buf, sizeof(buf), "every ~%.0f year(s)", years);
    } else {
      std::snprintf(buf, sizeof(buf), "every %zu weeks", shock.period);
    }
    out = std::string("cyclic (") + buf + ") from " +
          WeekToCalendar(shock.start);
  } else {
    out = "one-shot at " + WeekToCalendar(shock.start);
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ", width %zu wk, strength %.2f, %zu occurrence(s)",
                shock.width, shock.base_strength,
                shock.global_strengths.size());
  out += buf;
  return out;
}

}  // namespace bench
}  // namespace dspot

#endif  // DSPOT_BENCH_BENCH_UTIL_H_
