#include "common/flags.h"

#include <cstdio>
#include <limits>
#include <utility>

#include "common/parse_util.h"

namespace dspot {

Flags::Flags(std::string tool, int argc, char** argv, int first)
    : tool_(std::move(tool)) {
  for (int i = first; i < argc;) {
    std::string key = argv[i];
    // "--key=value" carries its value in the same token.
    const size_t eq = key.find('=');
    if (key.rfind("--", 0) == 0 && eq != std::string::npos) {
      values_[key.substr(0, eq)] = key.substr(eq + 1);
      present_.push_back(key.substr(0, eq));
      i += 1;
      continue;
    }
    present_.push_back(key);
    if (key.rfind("--", 0) == 0 && i + 1 < argc &&
        std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[i + 1];
      i += 2;
    } else {
      i += 1;
    }
  }
}

bool Flags::Has(const std::string& key) const {
  for (const std::string& p : present_) {
    if (p == key) return true;
  }
  return false;
}

bool Flags::HasValue(const std::string& key) const {
  return values_.find(key) != values_.end();
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Flags::UsageError(std::string_view key, const std::string& reason) const {
  std::fprintf(stderr, "%s: %.*s: %s\n", tool_.c_str(),
               static_cast<int>(key.size()), key.data(), reason.c_str());
  return false;
}

bool Flags::ParseInt(const char* key, int64_t fallback, int64_t min_value,
                     int64_t max_value, int64_t* out) const {
  *out = fallback;
  if (!Has(key)) return true;
  if (!HasValue(key)) return UsageError(key, "requires an integer value");
  auto parsed = ParseInt64Text(GetString(key));
  if (!parsed.ok()) return UsageError(key, parsed.status().message());
  if (*parsed < min_value || *parsed > max_value) {
    return UsageError(
        key, std::to_string(*parsed) +
                 (max_value == std::numeric_limits<int64_t>::max()
                      ? " must be >= " + std::to_string(min_value)
                      : " is out of range [" + std::to_string(min_value) +
                            ", " + std::to_string(max_value) + "]"));
  }
  *out = *parsed;
  return true;
}

bool Flags::ParseDouble(const char* key, double fallback, double min_value,
                        double* out) const {
  *out = fallback;
  if (!Has(key)) return true;
  if (!HasValue(key)) return UsageError(key, "requires a numeric value");
  auto parsed = ParseDoubleText(GetString(key));
  if (!parsed.ok()) return UsageError(key, parsed.status().message());
  if (*parsed < min_value) {
    char reason[64];
    std::snprintf(reason, sizeof(reason), "%g must be >= %g", *parsed,
                  min_value);
    return UsageError(key, reason);
  }
  *out = *parsed;
  return true;
}

bool Flags::ParseByteSize(const char* key, uint64_t fallback,
                          uint64_t* out) const {
  *out = fallback;
  if (!Has(key)) return true;
  if (!HasValue(key)) return UsageError(key, "requires a byte size value");
  auto parsed = ParseByteSizeText(GetString(key));
  if (!parsed.ok()) return UsageError(key, parsed.status().message());
  *out = *parsed;
  return true;
}

bool Flags::RejectUnknown(
    std::initializer_list<std::string_view> known) const {
  for (const std::string& token : present_) {
    if (token.rfind("--", 0) != 0) {
      return UsageError(token, "unexpected argument");
    }
    bool is_known = false;
    for (const std::string_view k : known) {
      is_known = is_known || token == k;
    }
    if (!is_known) return UsageError(token, "unknown flag");
  }
  return true;
}

}  // namespace dspot
