#pragma once
/// \file json.hpp
/// The one JSON module. Every emitter (QoR manifests, gaplint JSON/SARIF,
/// metrics, traces, flight dumps, gapstat, gapd replies and journals)
/// writes through the streaming `Writer`; every reader parses into the
/// `Value` DOM, whose dump() is itself a walk over a compact Writer.
///
/// A Writer handles escaping, commas and nesting, and writes numbers via
/// std::to_chars at precision 17, which gives the same bytes as printf's
/// %.17g (and so round-trips exactly) at a fraction of the cost. Its
/// layouts: kCompact `{"a":1,"b":[2]}`, kInline `{ "a": 1, "b": [ 2 ] }`,
/// and kPretty (two-space indent, one member or element per line). A
/// container inside a compact or inline one keeps its parent's layout;
/// only a pretty parent honors the layout a child asks for (the
/// manifest's one-line slack histogram), so a renderer for a pretty file
/// drops straight into a compact gapd reply.
///
/// Non-finite numbers are not JSON. A Writer still writes their %.17g
/// text (dump() of a parsed "1e999" is unchanged) but records the first:
/// ok() turns false and error() names it. The document's owner acts on
/// it: gapd replies `internal`, gapflow --qor-out fails with kInternal,
/// and the metrics dump clamps gauges to 0 before writing.
///
/// Untrusted input: parse_checked() never aborts and never overflows the
/// stack — nesting is depth-limited (kMaxParseDepth), and every rejection
/// carries a coded diagnostic with the line:column of the offending byte.

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace gap::common::json {

/// Escape a string for use inside JSON double quotes: `"`, `\`, \n, \r
/// and \t get their short escapes, every other byte below 0x20 becomes
/// \u00XX, and all other bytes (DEL, UTF-8) pass through unchanged.
[[nodiscard]] std::string escape(std::string_view s);

/// The three output layouts (see the file comment).
enum class Layout : std::uint8_t { kCompact, kInline, kPretty };

/// Streaming JSON emitter into an owned string; calls chain, e.g.
///   w.begin_object().member("a", 1).key("b").begin_array().end_array()
/// Inside an object every value follows a key() (member() does both);
/// misuse (a missing key, unbalanced end_*) fails GAP_EXPECTS.
class Writer {
 public:
  explicit Writer(Layout layout = Layout::kCompact) : root_(layout) {}

  /// Open a container. `layout` applies when the enclosing container (at
  /// the root: the writer) is kPretty; otherwise the parent's is kept.
  Writer& begin_object(Layout layout = Layout::kPretty) {
    return begin('{', true, layout);
  }
  Writer& end_object() { return end('}', true); }
  Writer& begin_array(Layout layout = Layout::kPretty) {
    return begin('[', false, layout);
  }
  Writer& end_array() { return end(']', false); }

  /// Object member name; the next call writes its value.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& value(double v);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Writer& value(T v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return raw(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }
  Writer& null() { return raw("null"); }
  /// An already-rendered JSON value, copied verbatim.
  Writer& raw(std::string_view json);

  template <typename T>
  Writer& member(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// ok() is false once a non-finite number was written; error() names
  /// the first one and the member it was written under.
  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  struct Frame { Layout layout; bool object; bool empty; };

  Writer& begin(char open, bool object, Layout layout);
  Writer& end(char close, bool object);
  /// The separator (and pretty newline + indent) before a key or element.
  void separate();
  /// separate(), unless the value completes the key() just written.
  void before_value();
  void indent(std::size_t depth) {
    out_.append(1, '\n').append(2 * depth, ' ');
  }

  std::string out_;
  std::vector<Frame> stack_;
  Layout root_;
  bool after_key_ = false;
  std::size_t key_pos_ = 0;  ///< the last key's text within out_
  std::size_t key_len_ = 0;
  std::string error_;
};

/// A double as the JSON number text a Writer emits (%.17g, which
/// round-trips exactly); non-finite values give "nan"/"inf".
inline std::string number(double v) { return Writer().value(v).take(); }

/// Parsed JSON value. Objects preserve insertion order (manifest diffs
/// report keys in the order the writer emitted them); lookup is linear,
/// which is fine at manifest sizes.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Maximum container nesting parse_checked() accepts. Inputs
  /// nested deeper (e.g. a 100k-deep "[[[[...") are rejected with
  /// ErrorCode::kInvalidValue instead of recursing toward a stack
  /// overflow.
  static constexpr int kMaxParseDepth = 64;

  /// Parse one complete JSON document. Escapes are decoded (\uXXXX to
  /// UTF-8; surrogate pairs are not needed by any in-repo writer and
  /// decode independently). Safe on untrusted input: a syntax error or
  /// trailing garbage comes back as a failed Status with a coded
  /// diagnostic — kParse for syntax errors, kInvalidValue for semantic
  /// limits (nesting beyond kMaxParseDepth) — whose SourceLoc is the
  /// 1-based line:column of the offending byte.
  [[nodiscard]] static Result<Value> parse_checked(const std::string& text);

  /// Compact single-line serialization (no spaces, no newlines; object
  /// members in stored order, numbers via number()). parse_checked(dump())
  /// is the identity on the DOM, and dump() output never contains a raw
  /// newline, so any parsed document can be embedded in a line-delimited
  /// protocol.
  [[nodiscard]] std::string dump() const;

  /// Write this value into `w` (dump() is write() into a compact Writer).
  void write(Writer& w) const;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member by key; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Convenience accessors with fallback defaults.
  [[nodiscard]] double number_or(double def) const {
    return kind == Kind::kNumber ? num : def;
  }
  [[nodiscard]] std::string string_or(std::string def) const {
    return kind == Kind::kString ? str : std::move(def);
  }

  /// Member lookups combining find() + the accessor above.
  [[nodiscard]] double member_number(const std::string& key, double def) const;
  [[nodiscard]] std::string member_string(const std::string& key,
                                          std::string def) const;
};

}  // namespace gap::common::json
