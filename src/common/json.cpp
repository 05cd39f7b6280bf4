#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"

namespace gap::common::json {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending pass-through bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

/// Recursive-descent parser over a string. Mirrors the grammar the
/// emitters produce plus the rest of RFC 8259; depth-limited so a
/// maliciously nested input cannot blow the stack. Failures record the
/// first offending byte and a coded reason for parse_checked().
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<Value> parse() {
    skip_ws();
    Value v;
    if (!value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail(ErrorCode::kParse, "trailing characters after JSON document");
      return std::nullopt;
    }
    return v;
  }

  /// Status for the recorded failure, locating the offending byte.
  [[nodiscard]] Status error() const {
    SourceLoc loc;
    loc.line = 1;
    loc.column = 1;
    for (std::size_t i = 0; i < err_pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++loc.line;
        loc.column = 1;
      } else {
        ++loc.column;
      }
    }
    return Status::error(err_code_, err_msg_, loc, "json");
  }

 private:
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  /// Record the first failure only: the deepest callee saw the actual
  /// offending byte; callers unwinding through it must not overwrite.
  bool fail(ErrorCode code, std::string msg) {
    if (err_code_ == ErrorCode::kOk) {
      err_code_ = code;
      err_msg_ = std::move(msg);
      err_pos_ = pos_;
    }
    return false;
  }

  bool expect(char c, const char* what) {
    if (eat(c)) return true;
    return fail(ErrorCode::kParse, std::string("expected ") + what);
  }

  bool literal(const char* s) {
    std::size_t i = 0;
    while (s[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != s[i])
        return fail(ErrorCode::kParse,
                    std::string("invalid literal (expected '") + s + "')");
      ++i;
    }
    pos_ += i;
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool string(std::string& out) {
    if (!eat('"')) return fail(ErrorCode::kParse, "expected '\"'");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail(ErrorCode::kParse,
                    "unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size())
        return fail(ErrorCode::kParse, "unterminated escape sequence");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
              return fail(ErrorCode::kParse, "truncated \\u escape");
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else {
              --pos_;
              return fail(ErrorCode::kParse, "invalid \\u escape digit");
            }
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          return fail(ErrorCode::kParse, "invalid escape character");
      }
    }
    return fail(ErrorCode::kParse, "unterminated string");
  }

  bool number(double& out) {
    const std::size_t start = pos_;
    eat('-');
    if (!std::isdigit(static_cast<unsigned char>(peek())))
      return fail(ErrorCode::kParse, "invalid JSON value");
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (eat('.')) {
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return fail(ErrorCode::kParse, "expected digit after '.'");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return fail(ErrorCode::kParse, "expected digit in exponent");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    out = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  bool value(Value& v, int depth) {  // NOLINT(misc-no-recursion)
    skip_ws();
    switch (peek()) {
      case '{': {
        if (depth >= Value::kMaxParseDepth)
          return fail(ErrorCode::kInvalidValue,
                      "nesting deeper than " +
                          std::to_string(Value::kMaxParseDepth) + " levels");
        v.kind = Value::Kind::kObject;
        ++pos_;
        skip_ws();
        if (eat('}')) return true;
        while (true) {
          skip_ws();
          std::string key;
          if (!string(key)) return false;
          skip_ws();
          if (!expect(':', "':' after object key")) return false;
          Value member;
          if (!value(member, depth + 1)) return false;
          v.object.emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (eat('}')) return true;
          if (!expect(',', "',' or '}' in object")) return false;
        }
      }
      case '[': {
        if (depth >= Value::kMaxParseDepth)
          return fail(ErrorCode::kInvalidValue,
                      "nesting deeper than " +
                          std::to_string(Value::kMaxParseDepth) + " levels");
        v.kind = Value::Kind::kArray;
        ++pos_;
        skip_ws();
        if (eat(']')) return true;
        while (true) {
          Value element;
          if (!value(element, depth + 1)) return false;
          v.array.push_back(std::move(element));
          skip_ws();
          if (eat(']')) return true;
          if (!expect(',', "',' or ']' in array")) return false;
        }
      }
      case '"':
        v.kind = Value::Kind::kString;
        return string(v.str);
      case 't':
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        return literal("true");
      case 'f':
        v.kind = Value::Kind::kBool;
        v.boolean = false;
        return literal("false");
      case 'n':
        v.kind = Value::Kind::kNull;
        return literal("null");
      default:
        v.kind = Value::Kind::kNumber;
        return number(v.num);
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;

  ErrorCode err_code_ = ErrorCode::kOk;
  std::string err_msg_;
  std::size_t err_pos_ = 0;
};

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(out, s);
  return out;
}

// --- Writer --------------------------------------------------------------

void Writer::separate() {
  if (stack_.empty()) {
    GAP_EXPECTS(out_.empty());  // one root value per writer
    return;
  }
  Frame& f = stack_.back();
  if (f.layout == Layout::kInline) out_ += f.empty ? " " : ", ";
  else if (!f.empty) out_ += ',';
  if (f.layout == Layout::kPretty) indent(stack_.size());
  f.empty = false;
}

void Writer::before_value() {
  GAP_EXPECTS(after_key_ || stack_.empty() || !stack_.back().object);
  if (!std::exchange(after_key_, false)) separate();
}

Writer& Writer::begin(char open, bool object, Layout layout) {
  before_value();
  const Layout parent = stack_.empty() ? root_ : stack_.back().layout;
  stack_.push_back({parent == Layout::kPretty ? layout : parent, object, true});
  out_ += open;
  return *this;
}

Writer& Writer::end(char close, bool object) {
  GAP_EXPECTS(!after_key_ && !stack_.empty() &&
              stack_.back().object == object);
  const Frame f = stack_.back();
  stack_.pop_back();
  if (!f.empty && f.layout == Layout::kInline) out_ += ' ';
  if (!f.empty && f.layout == Layout::kPretty) indent(stack_.size());
  out_ += close;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  GAP_EXPECTS(!after_key_ && !stack_.empty() && stack_.back().object);
  separate();
  out_ += '"';
  key_pos_ = out_.size();
  append_escaped(out_, k);
  key_len_ = out_.size() - key_pos_;
  out_ += stack_.back().layout == Layout::kCompact ? "\":" : "\": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  before_value();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return *this;
}

Writer& Writer::value(double v) {
  // to_chars with a precision is specified to give printf's %.17g text,
  // without printf's format parsing and locale lookup.
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 17);
  const std::string_view text(buf, static_cast<std::size_t>(r.ptr - buf));
  if (!std::isfinite(v) && error_.empty()) {
    error_ = "non-finite number " + std::string(text);
    if (key_len_ != 0)
      error_ += " at \"" + out_.substr(key_pos_, key_len_) + '"';
  }
  return raw(text);
}

Writer& Writer::raw(std::string_view json) {
  before_value();
  out_ += json;
  return *this;
}

// --- Value ---------------------------------------------------------------

std::optional<Value> Value::parse(const std::string& text) {
  return Parser(text).parse();
}

Result<Value> Value::parse_checked(const std::string& text) {
  Parser p(text);
  if (auto v = p.parse()) return *std::move(v);
  return p.error();
}

std::string Value::dump() const {
  Writer w;
  write(w);
  return w.take();
}

void Value::write(Writer& w) const {  // NOLINT(misc-no-recursion)
  switch (kind) {
    case Kind::kNull: w.null(); break;
    case Kind::kBool: w.value(boolean); break;
    case Kind::kNumber: w.value(num); break;
    case Kind::kString: w.value(str); break;
    case Kind::kArray:
      w.begin_array();
      for (const Value& e : array) e.write(w);
      w.end_array();
      break;
    case Kind::kObject:
      w.begin_object();
      for (const auto& [k, m] : object) {
        w.key(k);
        m.write(w);
      }
      w.end_object();
      break;
  }
}

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

double Value::member_number(const std::string& key, double def) const {
  const Value* v = find(key);
  return v != nullptr ? v->number_or(def) : def;
}

std::string Value::member_string(const std::string& key,
                                std::string def) const {
  const Value* v = find(key);
  return v != nullptr ? v->string_or(std::move(def)) : def;
}

}  // namespace gap::common::json
