// Command-line flags of the tools: "--key value", "--key=value" and
// boolean "--key" tokens after a tool's subcommand, typed strictly (see
// common/parse_util.h), with unknown flags rejected. Every usage error is
// printed on stderr as "<tool>: <flag>: <reason>".
#ifndef DSPOT_COMMON_FLAGS_H_
#define DSPOT_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dspot {

class Flags {
 public:
  /// Parses argv[first, argc). A "--key" followed by a token that does
  /// not start with "--" takes it as its value; otherwise it is boolean.
  Flags(std::string tool, int argc, char** argv, int first);

  bool Has(const std::string& key) const;
  bool HasValue(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;

  /// The typed getters set `*out` to `fallback` when the flag is absent.
  /// When it is present, its whole value must parse and lie in range;
  /// otherwise they print a usage error and return false.
  bool ParseInt(const char* key, int64_t fallback, int64_t min_value,
                int64_t max_value, int64_t* out) const;
  bool ParseDouble(const char* key, double fallback, double min_value,
                   double* out) const;
  /// A byte size such as 256, 64M or 2GiB.
  bool ParseByteSize(const char* key, uint64_t fallback, uint64_t* out) const;

  /// False, after a usage error, if any token is neither one of `known`
  /// nor a flag's value: a typo'd flag fails fast instead of being
  /// silently ignored.
  bool RejectUnknown(std::initializer_list<std::string_view> known) const;

 private:
  /// Prints "<tool>: <key>: <reason>" on stderr and returns false.
  bool UsageError(std::string_view key, const std::string& reason) const;

  std::string tool_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> present_;
};

}  // namespace dspot

#endif  // DSPOT_COMMON_FLAGS_H_
