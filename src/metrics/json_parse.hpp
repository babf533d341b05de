// Minimal recursive-descent JSON parser, and the writer that puts a parsed
// value back out.
//
// The simulator mostly only *writes* JSON (JsonWriter). Its readers are
// tools/report_scrub (strips machine-dependent fields so two reports can
// be compared byte-for-byte), ablation_state_scaling (holds its observed
// cell's report sections from mid-run until the sweep's phase profile is
// complete) and the tests that check written artifacts. So this is the
// smallest DOM that covers them: objects, arrays, strings, numbers,
// booleans, null, UTF-8 passed through verbatim, \uXXXX escapes decoded.
// No third-party dependency, same as the writer.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/json.hpp"

namespace hbh::metrics {

/// A parsed JSON value. Object members keep document order (the writer
/// emits sorted keys anyway); lookup is linear — documents here are small.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }

  /// Object member by key; nullptr if absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Nested lookup: find("a", "b") == find("a")->find("b").
  template <typename... Rest>
  [[nodiscard]] const JsonValue* find(std::string_view key,
                                      Rest... rest) const {
    const JsonValue* v = find(key);
    return v == nullptr ? nullptr : v->find(rest...);
  }
};

/// Parses `text` into `out`. On failure returns false and, when `error`
/// is non-null, stores a message with the byte offset.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue& out,
                              std::string* error = nullptr);

/// Reads and parses a file; false on I/O or parse failure.
[[nodiscard]] bool parse_json_file(const std::string& path, JsonValue& out,
                                   std::string* error = nullptr);

/// Writes `v` in document order. Numbers go through JsonWriter::value(double),
/// so a value JsonWriter wrote (integers below 1e12, doubles at %.12g)
/// comes back byte-identical.
void write_json(JsonWriter& w, const JsonValue& v);

}  // namespace hbh::metrics
