#include "tensor/tensor_io.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "durable/durable_file.h"

namespace dspot {

namespace {

/// Formats `v` with the fewest digits (15 or 17 significant) that parse
/// back to exactly the same double, so CSV save -> load is value-exact.
std::string FormatValue(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// Splits a CSV line on commas. No quoting support: labels in this library
/// are simple identifiers.
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) {
    out.push_back(field);
  }
  // Trailing comma yields a final empty field.
  if (!line.empty() && line.back() == ',') {
    out.push_back("");
  }
  return out;
}

/// True iff `end` points at nothing but trailing whitespace: a field like
/// "1.5abc" must be rejected, not silently coerced to 1.5.
bool FullyConsumed(const char* end) {
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  return *end == '\0';
}

StatusOr<double> ParseValue(const std::string& field) {
  if (field.empty() || field == "NaN" || field == "nan") {
    return kMissingValue;
  }
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || !FullyConsumed(end)) {
    return Status::InvalidArgument("unparseable numeric field '" + field +
                                   "'");
  }
  return v;
}

StatusOr<size_t> ParseIndex(const std::string& field) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (end == field.c_str() || !FullyConsumed(end) || errno == ERANGE ||
      v < 0) {
    return Status::InvalidArgument("unparseable index field '" + field + "'");
  }
  return static_cast<size_t>(v);
}

/// "<path>:<line>: column <column>: <what>" — enough context to fix the
/// offending row with a text editor. Columns are 1-based.
Status RowError(const std::string& path, size_t line_no, size_t column,
                const std::string& what) {
  return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                 ": column " + std::to_string(column) + ": " +
                                 what);
}

}  // namespace

Status SaveTensorCsv(const ActivityTensor& tensor, const std::string& path) {
  // Rendered in memory and written atomically (temp + rename), so a
  // failed export never leaves a truncated CSV where a good one stood.
  std::ostringstream os;
  os << "keyword,location,tick,value\n";
  for (size_t i = 0; i < tensor.num_keywords(); ++i) {
    for (size_t j = 0; j < tensor.num_locations(); ++j) {
      for (size_t t = 0; t < tensor.num_ticks(); ++t) {
        const double v = tensor.at(i, j, t);
        // Missing cells are written as explicit "NaN" rows: omitting them
        // would let a loader fill them with zero and would shrink the tick
        // dimension whenever the trailing ticks are all missing.
        os << tensor.keywords()[i] << ',' << tensor.locations()[j] << ',' << t
           << ',' << (IsMissing(v) ? "NaN" : FormatValue(v)) << '\n';
      }
    }
  }
  const std::string text = os.str();
  return AtomicWriteFile(path, text.data(), text.size());
}

StatusOr<ActivityTensor> LoadTensorCsv(const std::string& path,
                                       bool fill_absent_with_zero,
                                       const CsvReadOptions& read_options) {
  size_t skipped = 0;
  if (read_options.skipped_rows) *read_options.skipped_rows = 0;
  std::ifstream is(path);
  if (!is) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string line;
  if (!std::getline(is, line)) {
    return Status::IoError("empty file: " + path);
  }
  // Records in file order; dimensions discovered on the fly.
  struct Record {
    size_t keyword;
    size_t location;
    size_t tick;
    double value;
  };
  std::vector<Record> records;
  std::vector<std::string> keywords;
  std::vector<std::string> locations;
  std::map<std::string, size_t> keyword_index;
  std::map<std::string, size_t> location_index;
  size_t max_tick = 0;
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != 4) {
      if (read_options.skip_bad_rows) {
        ++skipped;
        continue;
      }
      return RowError(path, line_no, fields.size() < 4 ? fields.size() + 1 : 5,
                      "expected 4 fields, got " +
                          std::to_string(fields.size()));
    }
    // Parse the numeric fields *before* interning labels, so a malformed
    // (skipped) row cannot leak a phantom keyword or location into the
    // tensor's label sets.
    Record rec;
    StatusOr<size_t> tick_or = ParseIndex(fields[2]);
    if (!tick_or.ok()) {
      if (read_options.skip_bad_rows) {
        ++skipped;
        continue;
      }
      return RowError(path, line_no, 3, tick_or.status().message());
    }
    rec.tick = tick_or.value();
    StatusOr<double> value_or = ParseValue(fields[3]);
    if (!value_or.ok()) {
      if (read_options.skip_bad_rows) {
        ++skipped;
        continue;
      }
      return RowError(path, line_no, 4, value_or.status().message());
    }
    rec.value = value_or.value();
    auto [kit, kinserted] =
        keyword_index.emplace(fields[0], keywords.size());
    if (kinserted) keywords.push_back(fields[0]);
    rec.keyword = kit->second;
    auto [lit, linserted] =
        location_index.emplace(fields[1], locations.size());
    if (linserted) locations.push_back(fields[1]);
    rec.location = lit->second;
    max_tick = std::max(max_tick, rec.tick);
    records.push_back(rec);
  }
  if (read_options.skipped_rows) *read_options.skipped_rows = skipped;
  if (records.empty()) {
    return Status::IoError("no data rows in " + path);
  }
  DSPOT_RETURN_IF_ERROR(
      CheckTickExtent(keywords.size(), locations.size(), max_tick, path));
  ActivityTensor tensor(keywords.size(), locations.size(), max_tick + 1);
  if (!fill_absent_with_zero) {
    for (size_t i = 0; i < tensor.num_keywords(); ++i) {
      for (size_t j = 0; j < tensor.num_locations(); ++j) {
        for (size_t t = 0; t < tensor.num_ticks(); ++t) {
          tensor.at(i, j, t) = kMissingValue;
        }
      }
    }
  }
  for (size_t i = 0; i < keywords.size(); ++i) {
    DSPOT_RETURN_IF_ERROR(tensor.SetKeywordName(i, keywords[i]));
  }
  for (size_t j = 0; j < locations.size(); ++j) {
    DSPOT_RETURN_IF_ERROR(tensor.SetLocationName(j, locations[j]));
  }
  for (const Record& rec : records) {
    tensor.at(rec.keyword, rec.location, rec.tick) = rec.value;
  }
  return tensor;
}

Status SaveSeriesCsv(const Series& series, const std::string& path) {
  std::ostringstream os;
  os << "tick,value\n";
  for (size_t t = 0; t < series.size(); ++t) {
    os << t << ',';
    if (series.IsObserved(t)) {
      os << FormatValue(series[t]);
    } else {
      os << "NaN";
    }
    os << '\n';
  }
  const std::string text = os.str();
  return AtomicWriteFile(path, text.data(), text.size());
}

StatusOr<Series> LoadSeriesCsv(const std::string& path,
                               const CsvReadOptions& read_options) {
  size_t skipped = 0;
  if (read_options.skipped_rows) *read_options.skipped_rows = 0;
  std::ifstream is(path);
  if (!is) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string line;
  if (!std::getline(is, line)) {
    return Status::IoError("empty file: " + path);
  }
  std::vector<std::pair<size_t, double>> rows;
  size_t max_tick = 0;
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != 2) {
      if (read_options.skip_bad_rows) {
        ++skipped;
        continue;
      }
      return RowError(path, line_no, fields.size() < 2 ? fields.size() + 1 : 3,
                      "expected 2 fields, got " +
                          std::to_string(fields.size()));
    }
    StatusOr<size_t> tick_or = ParseIndex(fields[0]);
    if (!tick_or.ok()) {
      if (read_options.skip_bad_rows) {
        ++skipped;
        continue;
      }
      return RowError(path, line_no, 1, tick_or.status().message());
    }
    StatusOr<double> value_or = ParseValue(fields[1]);
    if (!value_or.ok()) {
      if (read_options.skip_bad_rows) {
        ++skipped;
        continue;
      }
      return RowError(path, line_no, 2, value_or.status().message());
    }
    max_tick = std::max(max_tick, tick_or.value());
    rows.emplace_back(tick_or.value(), value_or.value());
  }
  if (read_options.skipped_rows) *read_options.skipped_rows = skipped;
  if (rows.empty()) {
    return Status::IoError("no data rows in " + path);
  }
  DSPOT_RETURN_IF_ERROR(CheckTickExtent(1, 1, max_tick, path));
  Series s(max_tick + 1);
  for (double& v : s.mutable_values()) {
    v = kMissingValue;
  }
  for (const auto& [tick, value] : rows) {
    s[tick] = value;
  }
  return s;
}

}  // namespace dspot
