#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mobitherm::util::json {

std::string format_number(double value) {
  if (!std::isfinite(value)) {
    // JSON has no inf/nan; the simulator never produces them in results,
    // but a canonical fallback beats undefined output.
    return "null";
  }
  // Longest output: "-1.7976931348623157e+308", 24 characters.
  char buf[32];
  if (value == std::floor(value) && std::fabs(value) <= 9007199254740992.0) {
    return std::string(
        buf, std::to_chars(buf, buf + sizeof(buf),
                           static_cast<long long>(value))
                 .ptr);
  }
  // The shortest of %.15g, %.16g and %.17g that parses back to `value`
  // (general format with a precision is printf's %.*g, byte for byte).
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), value,
                        std::chars_format::general, precision)
              .ptr;
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    if (parsed == value) {
      break;
    }
  }
  return std::string(buf, end);
}

std::string quote(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

Value Value::boolean(bool b) {
  Value v(Type::kBool);
  v.bool_ = b;
  return v;
}

Value Value::number(double value) {
  Value v(Type::kNumber);
  v.number_ = value;
  return v;
}

Value Value::string(std::string s) {
  Value v(Type::kString);
  v.string_ = std::move(s);
  return v;
}

Value Value::array() { return Value(Type::kArray); }

Value Value::object() { return Value(Type::kObject); }

bool Value::as_bool() const {
  if (type_ != Type::kBool) {
    throw ParseError("json: value is not a boolean");
  }
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) {
    throw ParseError("json: value is not a number");
  }
  return number_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) {
    throw ParseError("json: value is not a string");
  }
  return string_;
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::kArray) {
    throw ParseError("json: value is not an array");
  }
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (type_ != Type::kObject) {
    throw ParseError("json: value is not an object");
  }
  return object_;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Value& Value::set(const std::string& key, Value v) {
  if (type_ != Type::kObject) {
    throw ParseError("json: set() on a non-object");
  }
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(v));
  return *this;
}

Value& Value::push(Value v) {
  if (type_ != Type::kArray) {
    throw ParseError("json: push() on a non-array");
  }
  array_.push_back(std::move(v));
  return *this;
}

void Value::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      out += format_number(number_);
      return;
    case Type::kString:
      out += quote(string_);
      return;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) {
          out.push_back(',');
        }
        array_[i].dump_to(out);
      }
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) {
          out.push_back(',');
        }
        out += quote(object_[i].first);
        out.push_back(':');
        object_[i].second.dump_to(out);
      }
      out.push_back('}');
      return;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value");
    }
    return v;
  }

 private:
  /// Bounds container nesting for the lifetime of one parse_object/array
  /// frame (each frame is a real stack frame — see kMaxParseDepth).
  class DepthGuard {
   public:
    explicit DepthGuard(Parser* parser) : parser_(parser) {
      if (++parser_->depth_ > kMaxParseDepth) {
        parser_->fail("nesting deeper than " +
                      std::to_string(kMaxParseDepth) + " levels");
      }
    }
    ~DepthGuard() { --parser_->depth_; }

   private:
    Parser* parser_;
  };

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json: " + what + " at offset " +
                     std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value::string(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Value::boolean(true);
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          return Value::boolean(false);
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) {
          return Value::null();
        }
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    const DepthGuard guard(this);
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      if (obj.find(key) != nullptr) {
        // Last-wins would let `{"op":"stats","op":"shutdown"}` smuggle a
        // second request past validation; ambiguous input is an error.
        fail("duplicate object key '" + key + "'");
      }
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    const DepthGuard guard(this);
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
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
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate pairs are not supported");
          }
          // Encode the BMP code point as UTF-8.
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
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("invalid number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (!is_strict_number(token)) {
      fail("invalid number '" + token + "'");
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("invalid number '" + token + "'");
    }
    return Value::number(v);
  }

  /// RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  /// — strtod alone is laxer (it takes "+1", "1.", ".5", "01").
  static bool is_strict_number(const std::string& t) {
    std::size_t i = 0;
    const auto digit = [&](std::size_t k) {
      return k < t.size() && std::isdigit(static_cast<unsigned char>(t[k]));
    };
    if (i < t.size() && t[i] == '-') {
      ++i;
    }
    if (!digit(i)) {
      return false;
    }
    if (t[i] == '0') {
      ++i;
    } else {
      while (digit(i)) {
        ++i;
      }
    }
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (!digit(i)) {
        return false;
      }
      while (digit(i)) {
        ++i;
      }
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) {
        ++i;
      }
      if (!digit(i)) {
        return false;
      }
      while (digit(i)) {
        ++i;
      }
    }
    return i == t.size();
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value Value::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace mobitherm::util::json
