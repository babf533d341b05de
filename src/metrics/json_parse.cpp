#include "metrics/json_parse.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace hbh::metrics {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after value");
    return true;
  }

 private:
  bool fail(std::string_view message) {
    if (error_ != nullptr) {
      std::ostringstream os;
      os << message << " at byte " << pos_;
      *error_ = os.str();
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  bool expect(char c) {
    if (at_end() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail(std::string("invalid literal, expected \"") +
                  std::string(word) + "\"");
    }
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (depth_ > kMaxDepth) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++depth_;
    if (!expect('{')) return false;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++depth_;
    if (!expect('[')) return false;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    if (at_end() || peek() != '"') return fail("expected string");
    ++pos_;
    out.clear();
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) return false;
          append_utf8(out, code);
          break;
        }
        default:
          return fail("invalid escape sequence");
      }
    }
    return fail("unterminated string");
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape");
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) !=
                             0 ||
                         peek() == '.' || peek() == 'e' || peek() == 'E' ||
                         peek() == '+' || peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    const std::string token{text_.substr(start, pos_ - start)};
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return fail("malformed number");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    return true;
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue{};
  Parser p{text, error};
  return p.parse(out);
}

bool parse_json_file(const std::string& path, JsonValue& out,
                     std::string* error) {
  std::ifstream in{path};
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!parse_json(buf.str(), out, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

void write_json(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.boolean);
      break;
    case JsonValue::Kind::kNumber:
      w.value(v.number);
      break;
    case JsonValue::Kind::kString:
      w.value(v.string);
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [key, child] : v.object) {
        w.key(key);
        write_json(w, child);
      }
      w.end_object();
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& child : v.array) write_json(w, child);
      w.end_array();
      break;
  }
}

}  // namespace hbh::metrics
