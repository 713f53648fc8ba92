#include "tensor/event_log.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "kernels/calendar.h"

namespace dspot {

namespace {

/// Calendar bucket index of a Unix-seconds timestamp (branch-free kernel
/// arithmetic; correct for pre-epoch/negative timestamps). kNone is never
/// passed here.
int64_t CalendarBucket(int64_t unix_seconds, CalendarUnit unit) {
  const int64_t days = kernels::DaysFromSeconds(unix_seconds);
  switch (unit) {
    case CalendarUnit::kDay:
      return days;
    case CalendarUnit::kWeek:
      return kernels::WeekIndexFromDays(days);
    case CalendarUnit::kMonth:
      return kernels::MonthIndexFromDays(days);
    case CalendarUnit::kYear:
      return kernels::YearFromDays(days);
    case CalendarUnit::kNone:
      break;
  }
  return 0;
}

}  // namespace

size_t EventAggregator::InternKeyword(const std::string& name) {
  for (size_t i = 0; i < keywords_.size(); ++i) {
    if (keywords_[i] == name) return i;
  }
  keywords_.push_back(name);
  return keywords_.size() - 1;
}

size_t EventAggregator::InternLocation(const std::string& name) {
  for (size_t j = 0; j < locations_.size(); ++j) {
    if (locations_[j] == name) return j;
  }
  locations_.push_back(name);
  return locations_.size() - 1;
}

Status EventAggregator::Add(const EventRecord& record) {
  if (config_.ticks_resolution <= 0) {
    return Status::InvalidArgument("EventAggregator: non-positive resolution");
  }
  const std::optional<uint64_t> offset =
      kernels::OffsetFromOrigin(record.timestamp, config_.origin);
  if (!offset) {
    return Status::InvalidArgument(
        "EventAggregator: record timestamp precedes the origin");
  }
  if (record.keyword.empty() || record.location.empty()) {
    return Status::InvalidArgument("EventAggregator: empty keyword/location");
  }
  size_t tick;
  if (config_.calendar_unit == CalendarUnit::kNone) {
    // The exact distance, even where timestamp - origin overflows int64;
    // a tick past max_ticks is dropped below.
    tick = *offset / static_cast<uint64_t>(config_.ticks_resolution);
  } else {
    // Calendar mode: tick = bucket(timestamp) - bucket(origin). Both sides
    // use floor-aligned bucketing, so pre-epoch origins and timestamps
    // (negative Unix seconds) index correctly — e.g. with a kDay unit and
    // origin 0, second -1 would be day -1, not day 0; the monotone bucket
    // functions plus the timestamp >= origin check keep tick >= 0.
    tick = static_cast<size_t>(
        CalendarBucket(record.timestamp, config_.calendar_unit) -
        CalendarBucket(config_.origin, config_.calendar_unit));
  }
  if (config_.max_ticks > 0 && tick >= config_.max_ticks) {
    ++dropped_;
    return Status::Ok();
  }
  Cell cell;
  cell.keyword = InternKeyword(record.keyword);
  cell.location = InternLocation(record.location);
  cell.tick = tick;
  cells_.emplace_back(cell, record.count);
  max_tick_ = std::max(max_tick_, tick);
  ++accepted_;
  return Status::Ok();
}

StatusOr<ActivityTensor> EventAggregator::Build() const {
  if (cells_.empty()) {
    return Status::FailedPrecondition("EventAggregator: no records accepted");
  }
  DSPOT_RETURN_IF_ERROR(CheckTickExtent(keywords_.size(), locations_.size(),
                                        max_tick_, "EventAggregator"));
  ActivityTensor tensor(keywords_.size(), locations_.size(), max_tick_ + 1);
  for (size_t i = 0; i < keywords_.size(); ++i) {
    DSPOT_RETURN_IF_ERROR(tensor.SetKeywordName(i, keywords_[i]));
  }
  for (size_t j = 0; j < locations_.size(); ++j) {
    DSPOT_RETURN_IF_ERROR(tensor.SetLocationName(j, locations_[j]));
  }
  for (const auto& [cell, count] : cells_) {
    tensor.at(cell.keyword, cell.location, cell.tick) += count;
  }
  return tensor;
}

StatusOr<ActivityTensor> AggregateEvents(
    const std::vector<EventRecord>& records,
    const AggregationConfig& config) {
  EventAggregator aggregator(config);
  for (const EventRecord& record : records) {
    DSPOT_RETURN_IF_ERROR(aggregator.Add(record));
  }
  return aggregator.Build();
}

namespace {

/// True iff `end` points at nothing but trailing whitespace (a field like
/// "12abc" is rejected, not coerced to 12).
bool FullyConsumed(const char* end) {
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  return *end == '\0';
}

/// "<path>:<line>: column <column>: <what>"; columns are 1-based.
Status RowError(const std::string& path, size_t line_no, size_t column,
                const std::string& what) {
  return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                 ": column " + std::to_string(column) + ": " +
                                 what);
}

}  // namespace

Status ForEachEventCsv(
    const std::string& path, const CsvReadOptions& read_options,
    const std::function<Status(const EventRecord&)>& fn) {
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
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    // One shot per row: record the first defect, then either fail with it
    // (strict) or skip the row and count it (lenient).
    Status row_status = Status::Ok();
    std::istringstream fields(line);
    EventRecord record;
    std::string timestamp;
    std::string count;
    if (!std::getline(fields, record.keyword, ',') ||
        !std::getline(fields, record.location, ',') ||
        !std::getline(fields, timestamp, ',')) {
      row_status = RowError(path, line_no, 1,
                            "expected keyword,location,timestamp[,count]");
    }
    if (row_status.ok()) {
      char* end = nullptr;
      errno = 0;
      record.timestamp = std::strtoll(timestamp.c_str(), &end, 10);
      if (end == timestamp.c_str() || !FullyConsumed(end) ||
          errno == ERANGE) {
        row_status = RowError(path, line_no, 3,
                              "unparseable timestamp '" + timestamp + "'");
      } else if (std::getline(fields, count, ',')) {
        record.count = std::strtod(count.c_str(), &end);
        if (end == count.c_str() || !FullyConsumed(end)) {
          row_status =
              RowError(path, line_no, 4, "unparseable count '" + count + "'");
        } else if (!fields.eof()) {
          // The count ended at a comma, so a fifth field follows.
          row_status = RowError(path, line_no, 5,
                                "expected keyword,location,timestamp[,count]");
        }
      }
    }
    if (row_status.ok()) {
      // The consumer's own rejections (pre-origin timestamps, empty
      // labels, out-of-order arrivals) are data defects too, and get the
      // same row context.
      Status fn_status = fn(record);
      if (!fn_status.ok()) {
        row_status = RowError(path, line_no, 1, fn_status.message());
      }
    }
    if (!row_status.ok()) {
      if (read_options.skip_bad_rows) {
        ++skipped;
        continue;
      }
      return row_status;
    }
  }
  if (read_options.skipped_rows) *read_options.skipped_rows = skipped;
  return Status::Ok();
}

StatusOr<ActivityTensor> LoadAndAggregateEventsCsv(
    const std::string& path, const AggregationConfig& config,
    const CsvReadOptions& read_options) {
  EventAggregator aggregator(config);
  DSPOT_RETURN_IF_ERROR(ForEachEventCsv(
      path, read_options,
      [&aggregator](const EventRecord& r) { return aggregator.Add(r); }));
  return aggregator.Build();
}

}  // namespace dspot
