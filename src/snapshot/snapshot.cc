#include "snapshot/snapshot.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>

#include "durable/durable_file.h"
#include "obs/metrics.h"
#include "snapshot/codec.h"

namespace dspot {

namespace {

constexpr char kMagic[8] = {'D', 'S', 'P', 'O', 'T', 'S', 'N', 'P'};

// Caps on decoded counts. Far above any real model, far below anything
// that could drive a pathological allocation from a corrupt length field.
constexpr uint64_t kMaxDim = 1u << 24;        // keywords / locations / ticks
constexpr uint64_t kMaxShocks = 1u << 20;
constexpr uint64_t kMaxLabelLen = 1u << 16;

// ---------------------------------------------------------------------------
// Canonical payload
// ---------------------------------------------------------------------------

void PutMatrix(ByteWriter* w, const Matrix& m) {
  w->PutU64(m.rows());
  w->PutU64(m.cols());
  for (double v : m.data()) {
    w->PutDouble(v);
  }
}

StatusOr<Matrix> GetMatrix(ByteReader* r, const char* what) {
  DSPOT_ASSIGN_OR_RETURN(uint64_t rows, r->GetCount(kMaxDim, what));
  DSPOT_ASSIGN_OR_RETURN(uint64_t cols, r->GetCount(kMaxDim, what));
  if (rows * cols > r->remaining() / 8) {
    return r->CorruptAt(std::string(what) + " matrix " +
                        std::to_string(rows) + "x" + std::to_string(cols) +
                        " larger than the remaining payload");
  }
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      DSPOT_ASSIGN_OR_RETURN(m(i, j), r->GetDouble());
    }
  }
  return m;
}

// Cross-field shape validation shared by both decode backends. The codec
// reads each list behind its own length prefix, so a hostile file can
// declare num_keywords = 3 while storing one label (or the same label
// thrice); any consumer that indexes the label table by a stored keyword
// index would then read out of bounds — or serve model A under model B's
// name. Returns an empty string when the snapshot is consistent.
std::string SnapshotShapeProblem(const ModelSnapshot& s) {
  const ModelParamSet& p = s.params;
  if (s.keywords.size() != p.num_keywords) {
    return "keyword label count " + std::to_string(s.keywords.size()) +
           " does not match num_keywords " + std::to_string(p.num_keywords);
  }
  for (size_t i = 0; i < s.keywords.size(); ++i) {
    for (size_t j = i + 1; j < s.keywords.size(); ++j) {
      if (s.keywords[i] == s.keywords[j]) {
        return "duplicate keyword label '" + s.keywords[i] + "'";
      }
    }
  }
  if (s.locations.size() != p.num_locations) {
    return "location label count " + std::to_string(s.locations.size()) +
           " does not match num_locations " + std::to_string(p.num_locations);
  }
  if (!s.scales.empty() && s.scales.size() != p.num_keywords) {
    return "scale count " + std::to_string(s.scales.size()) +
           " does not match num_keywords " + std::to_string(p.num_keywords);
  }
  if (s.global_rmse.size() != p.num_keywords) {
    return "rmse count " + std::to_string(s.global_rmse.size()) +
           " does not match num_keywords " + std::to_string(p.num_keywords);
  }
  return std::string();
}

}  // namespace

std::vector<uint8_t> EncodeSnapshotPayload(const ModelSnapshot& s) {
  ByteWriter w;
  const ModelParamSet& p = s.params;
  w.PutU64(p.num_keywords);
  w.PutU64(p.num_locations);
  w.PutU64(p.num_ticks);
  w.PutU64(p.global.size());
  for (const KeywordGlobalParams& g : p.global) {
    w.PutDouble(g.population);
    w.PutDouble(g.beta);
    w.PutDouble(g.delta);
    w.PutDouble(g.gamma);
    w.PutDouble(g.i0);
    w.PutDouble(g.growth_rate);
    w.PutU64(g.growth_start);  // kNpos (all-ones) encodes "disabled"
  }
  PutMatrix(&w, p.base_local);
  PutMatrix(&w, p.growth_local);
  w.PutU64(p.shocks.size());
  for (const Shock& shock : p.shocks) {
    w.PutU64(shock.keyword);
    w.PutU64(shock.period);
    w.PutU64(shock.start);
    w.PutU64(shock.width);
    w.PutDouble(shock.base_strength);
    w.PutU64(shock.global_strengths.size());
    for (double v : shock.global_strengths) {
      w.PutDouble(v);
    }
    PutMatrix(&w, shock.local_strengths);
  }
  w.PutU64(s.keywords.size());
  for (const std::string& k : s.keywords) {
    w.PutString(k);
  }
  w.PutU64(s.locations.size());
  for (const std::string& l : s.locations) {
    w.PutString(l);
  }
  w.PutU64(s.scales.size());
  for (const ScaleInfo& info : s.scales) {
    w.PutDouble(info.factor);
  }
  w.PutU64(s.global_rmse.size());
  for (double v : s.global_rmse) {
    w.PutDouble(v);
  }
  w.PutDouble(s.total_cost_bits);
  w.PutU64(static_cast<uint64_t>(s.health.iterations));
  w.PutU64(static_cast<uint64_t>(s.health.restarts));
  w.PutDouble(s.health.wall_time_ms);
  w.PutU64(static_cast<uint64_t>(s.health.termination));
  return std::move(w).TakeBytes();
}

namespace {

StatusOr<ModelSnapshot> DecodeSnapshotPayload(ByteReader* r) {
  ModelSnapshot s;
  ModelParamSet& p = s.params;
  DSPOT_ASSIGN_OR_RETURN(p.num_keywords, r->GetCount(kMaxDim, "num_keywords"));
  DSPOT_ASSIGN_OR_RETURN(p.num_locations,
                         r->GetCount(kMaxDim, "num_locations"));
  DSPOT_ASSIGN_OR_RETURN(p.num_ticks, r->GetCount(kMaxDim, "num_ticks"));
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_global,
                         r->GetCount(kMaxDim, "global param count"));
  if (n_global != p.num_keywords) {
    return r->CorruptAt("global param count " + std::to_string(n_global) +
                        " does not match num_keywords " +
                        std::to_string(p.num_keywords));
  }
  p.global.resize(n_global);
  for (KeywordGlobalParams& g : p.global) {
    DSPOT_ASSIGN_OR_RETURN(g.population, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.beta, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.delta, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.gamma, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.i0, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(g.growth_rate, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(uint64_t gs, r->GetU64());
    g.growth_start = static_cast<size_t>(gs);
  }
  DSPOT_ASSIGN_OR_RETURN(p.base_local, GetMatrix(r, "base_local"));
  DSPOT_ASSIGN_OR_RETURN(p.growth_local, GetMatrix(r, "growth_local"));
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_shocks,
                         r->GetCount(kMaxShocks, "shock count"));
  p.shocks.resize(n_shocks);
  for (Shock& shock : p.shocks) {
    DSPOT_ASSIGN_OR_RETURN(shock.keyword, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(shock.period, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(shock.start, r->GetU64());
    DSPOT_ASSIGN_OR_RETURN(shock.width, r->GetU64());
    if (shock.keyword >= p.num_keywords) {
      return r->CorruptAt("shock keyword " + std::to_string(shock.keyword) +
                          " out of range (num_keywords " +
                          std::to_string(p.num_keywords) + ")");
    }
    DSPOT_ASSIGN_OR_RETURN(shock.base_strength, r->GetDouble());
    DSPOT_ASSIGN_OR_RETURN(
        uint64_t n_str, r->GetCount(r->remaining() / 8, "strength count"));
    shock.global_strengths.resize(n_str);
    for (double& v : shock.global_strengths) {
      DSPOT_ASSIGN_OR_RETURN(v, r->GetDouble());
    }
    DSPOT_ASSIGN_OR_RETURN(shock.local_strengths,
                           GetMatrix(r, "local_strengths"));
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_kw,
                         r->GetCount(kMaxDim, "keyword label count"));
  s.keywords.resize(n_kw);
  for (std::string& k : s.keywords) {
    DSPOT_ASSIGN_OR_RETURN(k, r->GetString());
    if (k.size() > kMaxLabelLen) {
      return r->CorruptAt("keyword label longer than " +
                          std::to_string(kMaxLabelLen));
    }
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_loc,
                         r->GetCount(kMaxDim, "location label count"));
  s.locations.resize(n_loc);
  for (std::string& l : s.locations) {
    DSPOT_ASSIGN_OR_RETURN(l, r->GetString());
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_scales,
                         r->GetCount(kMaxDim, "scale count"));
  s.scales.resize(n_scales);
  for (ScaleInfo& info : s.scales) {
    DSPOT_ASSIGN_OR_RETURN(info.factor, r->GetDouble());
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t n_rmse,
                         r->GetCount(kMaxDim, "rmse count"));
  s.global_rmse.resize(n_rmse);
  for (double& v : s.global_rmse) {
    DSPOT_ASSIGN_OR_RETURN(v, r->GetDouble());
  }
  DSPOT_ASSIGN_OR_RETURN(s.total_cost_bits, r->GetDouble());
  DSPOT_ASSIGN_OR_RETURN(uint64_t iters, r->GetU64());
  DSPOT_ASSIGN_OR_RETURN(uint64_t restarts, r->GetU64());
  s.health.iterations = static_cast<int>(iters);
  s.health.restarts = static_cast<int>(restarts);
  DSPOT_ASSIGN_OR_RETURN(s.health.wall_time_ms, r->GetDouble());
  DSPOT_ASSIGN_OR_RETURN(uint64_t term, r->GetU64());
  if (term > static_cast<uint64_t>(FitTermination::kCancelled)) {
    return r->CorruptAt("impossible termination value " +
                        std::to_string(term));
  }
  s.health.termination = static_cast<FitTermination>(term);
  if (r->remaining() != 0) {
    return r->CorruptAt(std::to_string(r->remaining()) +
                        " trailing bytes after the payload");
  }
  if (const std::string problem = SnapshotShapeProblem(s); !problem.empty()) {
    return r->CorruptAt(problem);
  }
  return s;
}

// ---------------------------------------------------------------------------
// JSON backend
// ---------------------------------------------------------------------------

// Shortest decimal rendering that parses back to the same double, so the
// JSON backend is value-exact like the binary one. Non-finite values are
// not valid JSON numbers and travel as strings.
std::string JsonDouble(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

void JsonMatrix(std::ostream& os, const Matrix& m) {
  os << "{\"rows\":" << m.rows() << ",\"cols\":" << m.cols() << ",\"data\":[";
  for (size_t i = 0; i < m.data().size(); ++i) {
    if (i) os << ",";
    os << JsonDouble(m.data()[i]);
  }
  os << "]}";
}

// --- Minimal JSON value parser (objects, arrays, strings, numbers) -------
//
// Just enough JSON for the snapshot schema; numbers are parsed as doubles
// and the "inf"/"-inf"/"nan" string spellings are accepted wherever a
// number is expected. Parse errors carry the byte offset into the file.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string context)
      : text_(text), context_(std::move(context)) {}

  StatusOr<JsonValue> Parse() {
    DSPOT_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing content after the top-level value");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::DataLoss(context_ + ": offset " + std::to_string(pos_) +
                            ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  StatusOr<JsonValue> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      DSPOT_ASSIGN_OR_RETURN(v.str, ParseString());
      return v;
    }
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) return Error("bad literal");
      pos_ += 4;
      return JsonValue();
    }
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseBool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
      return v;
    }
    return Error("bad literal");
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= h - '0';
              else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
              else return Error("bad \\u escape");
            }
            pos_ += 4;
            // Snapshot labels are ASCII; anything else is preserved
            // byte-wise only for the low range.
            out += static_cast<char>(code & 0xFF);
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      return Error("malformed number '" + tok + "'");
    }
    return v;
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      DSPOT_ASSIGN_OR_RETURN(JsonValue elem, ParseValue());
      v.array.push_back(std::move(elem));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return v;
      }
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a key string in object");
      }
      DSPOT_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after key '" + key + "'");
      }
      ++pos_;
      DSPOT_ASSIGN_OR_RETURN(JsonValue val, ParseValue());
      v.object.emplace(std::move(key), std::move(val));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return v;
      }
      return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string context_;
};

// --- JSON -> snapshot field extraction -----------------------------------

Status FieldError(const std::string& context, const std::string& what) {
  return Status::DataLoss(context + ": " + what);
}

StatusOr<const JsonValue*> GetField(const JsonValue& obj,
                                    const std::string& key,
                                    const std::string& context) {
  if (obj.kind != JsonValue::Kind::kObject) {
    return FieldError(context, "expected an object around '" + key + "'");
  }
  auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    return FieldError(context, "missing field '" + key + "'");
  }
  return &it->second;
}

StatusOr<double> GetNumber(const JsonValue& obj, const std::string& key,
                           const std::string& context) {
  DSPOT_ASSIGN_OR_RETURN(const JsonValue* v, GetField(obj, key, context));
  if (v->kind == JsonValue::Kind::kNumber) return v->number;
  if (v->kind == JsonValue::Kind::kString) {
    if (v->str == "inf") return std::numeric_limits<double>::infinity();
    if (v->str == "-inf") return -std::numeric_limits<double>::infinity();
    if (v->str == "nan") return std::numeric_limits<double>::quiet_NaN();
  }
  return FieldError(context, "field '" + key + "' is not a number");
}

StatusOr<double> NumberValue(const JsonValue& v, const std::string& context) {
  if (v.kind == JsonValue::Kind::kNumber) return v.number;
  if (v.kind == JsonValue::Kind::kString) {
    if (v.str == "inf") return std::numeric_limits<double>::infinity();
    if (v.str == "-inf") return -std::numeric_limits<double>::infinity();
    if (v.str == "nan") return std::numeric_limits<double>::quiet_NaN();
  }
  return FieldError(context, "expected a numeric array element");
}

StatusOr<uint64_t> GetUint(const JsonValue& obj, const std::string& key,
                           const std::string& context) {
  DSPOT_ASSIGN_OR_RETURN(double d, GetNumber(obj, key, context));
  if (!(d >= 0) || d != std::floor(d) || d > 1.8e19) {
    return FieldError(context,
                      "field '" + key + "' is not a non-negative integer");
  }
  return static_cast<uint64_t>(d);
}

// size_t fields that use kNpos as a sentinel travel as -1 in JSON.
StatusOr<size_t> GetIndexOrNpos(const JsonValue& obj, const std::string& key,
                                const std::string& context) {
  DSPOT_ASSIGN_OR_RETURN(double d, GetNumber(obj, key, context));
  if (d == -1.0) return kNpos;
  if (!(d >= 0) || d != std::floor(d)) {
    return FieldError(context, "field '" + key + "' is not an index or -1");
  }
  return static_cast<size_t>(d);
}

StatusOr<std::vector<double>> GetDoubleArray(const JsonValue& obj,
                                             const std::string& key,
                                             const std::string& context) {
  DSPOT_ASSIGN_OR_RETURN(const JsonValue* v, GetField(obj, key, context));
  if (v->kind != JsonValue::Kind::kArray) {
    return FieldError(context, "field '" + key + "' is not an array");
  }
  std::vector<double> out;
  out.reserve(v->array.size());
  for (const JsonValue& e : v->array) {
    DSPOT_ASSIGN_OR_RETURN(double d, NumberValue(e, context));
    out.push_back(d);
  }
  return out;
}

StatusOr<Matrix> GetJsonMatrix(const JsonValue& obj, const std::string& key,
                               const std::string& context) {
  DSPOT_ASSIGN_OR_RETURN(const JsonValue* v, GetField(obj, key, context));
  DSPOT_ASSIGN_OR_RETURN(uint64_t rows, GetUint(*v, "rows", context));
  DSPOT_ASSIGN_OR_RETURN(uint64_t cols, GetUint(*v, "cols", context));
  DSPOT_ASSIGN_OR_RETURN(std::vector<double> data,
                         GetDoubleArray(*v, "data", context));
  if (rows > kMaxDim || cols > kMaxDim || data.size() != rows * cols) {
    return FieldError(context, "matrix '" + key + "' has " +
                                   std::to_string(data.size()) +
                                   " entries for shape " +
                                   std::to_string(rows) + "x" +
                                   std::to_string(cols));
  }
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m(i, j) = data[i * cols + j];
    }
  }
  return m;
}

StatusOr<std::vector<std::string>> GetStringArray(const JsonValue& obj,
                                                  const std::string& key,
                                                  const std::string& context) {
  DSPOT_ASSIGN_OR_RETURN(const JsonValue* v, GetField(obj, key, context));
  if (v->kind != JsonValue::Kind::kArray) {
    return FieldError(context, "field '" + key + "' is not an array");
  }
  std::vector<std::string> out;
  out.reserve(v->array.size());
  for (const JsonValue& e : v->array) {
    if (e.kind != JsonValue::Kind::kString) {
      return FieldError(context, "non-string element in '" + key + "'");
    }
    out.push_back(e.str);
  }
  return out;
}

void WriteJsonSnapshot(std::ostream& os, const ModelSnapshot& s,
                       uint32_t payload_crc) {
  const ModelParamSet& p = s.params;
  os << "{\n";
  os << "  \"format\": \"dspot_snapshot\",\n";
  os << "  \"version\": " << kSnapshotVersion << ",\n";
  os << "  \"payload_crc32\": " << payload_crc << ",\n";
  os << "  \"num_keywords\": " << p.num_keywords << ",\n";
  os << "  \"num_locations\": " << p.num_locations << ",\n";
  os << "  \"num_ticks\": " << p.num_ticks << ",\n";
  os << "  \"global\": [";
  for (size_t i = 0; i < p.global.size(); ++i) {
    const KeywordGlobalParams& g = p.global[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"population\":" << JsonDouble(g.population)
       << ",\"beta\":" << JsonDouble(g.beta)
       << ",\"delta\":" << JsonDouble(g.delta)
       << ",\"gamma\":" << JsonDouble(g.gamma)
       << ",\"i0\":" << JsonDouble(g.i0)
       << ",\"growth_rate\":" << JsonDouble(g.growth_rate)
       << ",\"growth_start\":"
       << (g.growth_start == kNpos ? std::string("-1")
                                   : std::to_string(g.growth_start))
       << "}";
  }
  os << "\n  ],\n";
  os << "  \"base_local\": ";
  JsonMatrix(os, p.base_local);
  os << ",\n  \"growth_local\": ";
  JsonMatrix(os, p.growth_local);
  os << ",\n  \"shocks\": [";
  for (size_t i = 0; i < p.shocks.size(); ++i) {
    const Shock& shock = p.shocks[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"keyword\":" << shock.keyword << ",\"period\":" << shock.period
       << ",\"start\":" << shock.start << ",\"width\":" << shock.width
       << ",\"base_strength\":" << JsonDouble(shock.base_strength)
       << ",\"global_strengths\":[";
    for (size_t k = 0; k < shock.global_strengths.size(); ++k) {
      if (k) os << ",";
      os << JsonDouble(shock.global_strengths[k]);
    }
    os << "],\"local_strengths\":";
    JsonMatrix(os, shock.local_strengths);
    os << "}";
  }
  os << "\n  ],\n";
  os << "  \"keywords\": [";
  for (size_t i = 0; i < s.keywords.size(); ++i) {
    os << (i ? "," : "") << JsonString(s.keywords[i]);
  }
  os << "],\n  \"locations\": [";
  for (size_t i = 0; i < s.locations.size(); ++i) {
    os << (i ? "," : "") << JsonString(s.locations[i]);
  }
  os << "],\n  \"scales\": [";
  for (size_t i = 0; i < s.scales.size(); ++i) {
    os << (i ? "," : "") << JsonDouble(s.scales[i].factor);
  }
  os << "],\n  \"global_rmse\": [";
  for (size_t i = 0; i < s.global_rmse.size(); ++i) {
    os << (i ? "," : "") << JsonDouble(s.global_rmse[i]);
  }
  os << "],\n";
  os << "  \"total_cost_bits\": " << JsonDouble(s.total_cost_bits) << ",\n";
  os << "  \"health\": {\"iterations\":" << s.health.iterations
     << ",\"restarts\":" << s.health.restarts
     << ",\"wall_time_ms\":" << JsonDouble(s.health.wall_time_ms)
     << ",\"termination\":" << static_cast<int>(s.health.termination)
     << "}\n";
  os << "}\n";
}

StatusOr<ModelSnapshot> ParseJsonSnapshot(const std::string& text,
                                          const std::string& path) {
  JsonParser parser(text, path);
  DSPOT_ASSIGN_OR_RETURN(JsonValue root, parser.Parse());
  // Identity and version gate first: a random JSON file is
  // InvalidArgument, not DataLoss.
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument(path + ": not a dspot snapshot object");
  }
  auto fmt = root.object.find("format");
  if (fmt == root.object.end() ||
      fmt->second.kind != JsonValue::Kind::kString ||
      fmt->second.str != "dspot_snapshot") {
    return Status::InvalidArgument(
        path + ": missing \"format\": \"dspot_snapshot\" marker");
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t version, GetUint(root, "version", path));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        path + ": unsupported snapshot version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  DSPOT_ASSIGN_OR_RETURN(uint64_t stored_crc,
                         GetUint(root, "payload_crc32", path));

  ModelSnapshot s;
  ModelParamSet& p = s.params;
  DSPOT_ASSIGN_OR_RETURN(p.num_keywords, GetUint(root, "num_keywords", path));
  DSPOT_ASSIGN_OR_RETURN(p.num_locations,
                         GetUint(root, "num_locations", path));
  DSPOT_ASSIGN_OR_RETURN(p.num_ticks, GetUint(root, "num_ticks", path));
  DSPOT_ASSIGN_OR_RETURN(const JsonValue* global,
                         GetField(root, "global", path));
  if (global->kind != JsonValue::Kind::kArray) {
    return FieldError(path, "'global' is not an array");
  }
  for (const JsonValue& gv : global->array) {
    KeywordGlobalParams g;
    DSPOT_ASSIGN_OR_RETURN(g.population, GetNumber(gv, "population", path));
    DSPOT_ASSIGN_OR_RETURN(g.beta, GetNumber(gv, "beta", path));
    DSPOT_ASSIGN_OR_RETURN(g.delta, GetNumber(gv, "delta", path));
    DSPOT_ASSIGN_OR_RETURN(g.gamma, GetNumber(gv, "gamma", path));
    DSPOT_ASSIGN_OR_RETURN(g.i0, GetNumber(gv, "i0", path));
    DSPOT_ASSIGN_OR_RETURN(g.growth_rate, GetNumber(gv, "growth_rate", path));
    DSPOT_ASSIGN_OR_RETURN(g.growth_start,
                           GetIndexOrNpos(gv, "growth_start", path));
    p.global.push_back(g);
  }
  DSPOT_ASSIGN_OR_RETURN(p.base_local,
                         GetJsonMatrix(root, "base_local", path));
  DSPOT_ASSIGN_OR_RETURN(p.growth_local,
                         GetJsonMatrix(root, "growth_local", path));
  DSPOT_ASSIGN_OR_RETURN(const JsonValue* shocks,
                         GetField(root, "shocks", path));
  if (shocks->kind != JsonValue::Kind::kArray) {
    return FieldError(path, "'shocks' is not an array");
  }
  for (const JsonValue& sv : shocks->array) {
    Shock shock;
    DSPOT_ASSIGN_OR_RETURN(shock.keyword, GetUint(sv, "keyword", path));
    DSPOT_ASSIGN_OR_RETURN(shock.period, GetUint(sv, "period", path));
    DSPOT_ASSIGN_OR_RETURN(shock.start, GetUint(sv, "start", path));
    DSPOT_ASSIGN_OR_RETURN(shock.width, GetUint(sv, "width", path));
    DSPOT_ASSIGN_OR_RETURN(shock.base_strength,
                           GetNumber(sv, "base_strength", path));
    DSPOT_ASSIGN_OR_RETURN(shock.global_strengths,
                           GetDoubleArray(sv, "global_strengths", path));
    DSPOT_ASSIGN_OR_RETURN(shock.local_strengths,
                           GetJsonMatrix(sv, "local_strengths", path));
    p.shocks.push_back(std::move(shock));
  }
  DSPOT_ASSIGN_OR_RETURN(s.keywords, GetStringArray(root, "keywords", path));
  DSPOT_ASSIGN_OR_RETURN(s.locations,
                         GetStringArray(root, "locations", path));
  DSPOT_ASSIGN_OR_RETURN(std::vector<double> scales,
                         GetDoubleArray(root, "scales", path));
  s.scales.resize(scales.size());
  for (size_t i = 0; i < scales.size(); ++i) {
    s.scales[i].factor = scales[i];
  }
  DSPOT_ASSIGN_OR_RETURN(s.global_rmse,
                         GetDoubleArray(root, "global_rmse", path));
  DSPOT_ASSIGN_OR_RETURN(s.total_cost_bits,
                         GetNumber(root, "total_cost_bits", path));
  DSPOT_ASSIGN_OR_RETURN(const JsonValue* health,
                         GetField(root, "health", path));
  DSPOT_ASSIGN_OR_RETURN(uint64_t iters, GetUint(*health, "iterations", path));
  DSPOT_ASSIGN_OR_RETURN(uint64_t restarts,
                         GetUint(*health, "restarts", path));
  s.health.iterations = static_cast<int>(iters);
  s.health.restarts = static_cast<int>(restarts);
  DSPOT_ASSIGN_OR_RETURN(s.health.wall_time_ms,
                         GetNumber(*health, "wall_time_ms", path));
  DSPOT_ASSIGN_OR_RETURN(uint64_t term, GetUint(*health, "termination", path));
  if (term > static_cast<uint64_t>(FitTermination::kCancelled)) {
    return FieldError(path,
                      "impossible termination value " + std::to_string(term));
  }
  s.health.termination = static_cast<FitTermination>(term);
  if (const std::string problem = SnapshotShapeProblem(s); !problem.empty()) {
    return FieldError(path, problem);
  }

  // The backends share one source of truth: re-encode what we parsed into
  // the canonical payload and hold it against the stored checksum. Any
  // drift — an edited value, a lost digit, a field the writer and reader
  // disagree on — fails loudly here instead of serving a wrong model.
  const std::vector<uint8_t> payload = EncodeSnapshotPayload(s);
  const uint32_t crc = Crc32(payload.data(), payload.size());
  if (crc != stored_crc) {
    return Status::DataLoss(
        path + ": payload checksum mismatch (stored " +
        std::to_string(stored_crc) + ", canonical re-encode " +
        std::to_string(crc) + ") — the snapshot was modified or corrupted");
  }
  return s;
}

}  // namespace

ModelSnapshot MakeSnapshot(const DspotResult& result,
                           const ActivityTensor& tensor,
                           const std::vector<ScaleInfo>& scales) {
  ModelSnapshot s;
  s.params = result.params;
  s.keywords = tensor.keywords();
  s.locations = tensor.locations();
  s.scales = scales;
  s.global_rmse = result.global_rmse;
  s.total_cost_bits = result.total_cost_bits;
  s.health = result.health;
  return s;
}

std::vector<uint8_t> EncodeSnapshotFile(const ModelSnapshot& snapshot) {
  const std::vector<uint8_t> payload = EncodeSnapshotPayload(snapshot);
  ByteWriter file;
  file.PutFileHeader(kMagic, kSnapshotVersion);
  file.PutChecksummed(payload);
  return std::move(file).TakeBytes();
}

StatusOr<ModelSnapshot> DecodeSnapshotFile(const uint8_t* data, size_t size,
                                           const std::string& context) {
  ByteReader r(data, size, context);
  DSPOT_RETURN_IF_ERROR(r.GetFileHeader(kMagic, kSnapshotVersion, "snapshot"));
  DSPOT_ASSIGN_OR_RETURN(const std::span<const uint8_t> payload,
                         r.GetChecksummed());
  ByteReader payload_reader(payload.data(), payload.size(), context);
  return DecodeSnapshotPayload(&payload_reader);
}

Status SaveSnapshot(const ModelSnapshot& snapshot, const std::string& path,
                    SnapshotFormat format) {
  DSPOT_SPAN("snapshot.save");
  // Assemble the full file in memory, then replace the destination
  // atomically: a crashed or failed save leaves any previous snapshot
  // exactly as it was, never a truncated hybrid.
  if (format == SnapshotFormat::kBinary) {
    const std::vector<uint8_t> file = EncodeSnapshotFile(snapshot);
    DSPOT_RETURN_IF_ERROR(AtomicWriteFile(path, file.data(), file.size()));
    DSPOT_COUNT("snapshot.saves", 1);
    DSPOT_OBSERVE("snapshot.save_bytes", static_cast<double>(file.size()));
    return Status::Ok();
  }
  const std::vector<uint8_t> payload = EncodeSnapshotPayload(snapshot);
  const uint32_t crc = Crc32(payload.data(), payload.size());
  {
    std::ostringstream os;
    WriteJsonSnapshot(os, snapshot, crc);
    const std::string text = os.str();
    DSPOT_RETURN_IF_ERROR(AtomicWriteFile(path, text.data(), text.size()));
  }
  DSPOT_COUNT("snapshot.saves", 1);
  DSPOT_OBSERVE("snapshot.save_bytes",
                static_cast<double>(payload.size()));
  return Status::Ok();
}

StatusOr<ModelSnapshot> LoadSnapshot(const std::string& path) {
  DSPOT_SPAN("snapshot.load");
  DSPOT_ASSIGN_OR_RETURN(const std::string bytes, ReadFileBytes(path));
  if (bytes.empty()) {
    return Status::InvalidArgument(path + ": empty file");
  }
  // Sniff: binary snapshots start with the magic; the JSON backend (like
  // any JSON document we emit) starts with '{'.
  StatusOr<ModelSnapshot> loaded = Status::InvalidArgument(
      path + ": not a dspot snapshot (unrecognized leading bytes)");
  if (bytes.size() >= sizeof(kMagic) &&
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0) {
    loaded = DecodeSnapshotFile(reinterpret_cast<const uint8_t*>(bytes.data()),
                                bytes.size(), path);
  } else if (bytes[0] == '{') {
    loaded = ParseJsonSnapshot(bytes, path);
  }
  if (loaded.ok()) {
    DSPOT_COUNT("snapshot.loads", 1);
  } else {
    DSPOT_COUNT("snapshot.load_errors", 1);
  }
  return loaded;
}

}  // namespace dspot
