#include "common/source_reader.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <system_error>

namespace gap::common {
namespace {

template <typename T>
Number read_as(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  const bool overflow = ec == std::errc::result_out_of_range;
  if (stop != end || (ec != std::errc() && !overflow)) return {};
  const auto x = static_cast<double>(v);
  if (overflow || !std::isfinite(x)) return {{}, true};
  return {x, false};
}

}  // namespace

Number read_number(std::string_view text, bool integer) {
  return integer ? read_as<std::int64_t>(text) : read_as<double>(text);
}

void fail(const char* source, ErrorCode code, std::string message,
          SourceLoc loc) {
  throw ParseError{Status::error(code, std::move(message), loc, source)};
}

void advance(SourceLoc& pos, char c) {
  if (c == '\n') {
    ++pos.line;
    pos.column = 1;
  } else {
    ++pos.column;
  }
}

const Token& TokenCursor::next(const char* what) {
  if (at_end())
    fail(ErrorCode::kParse,
         std::string("unexpected end of input: expected ") + what, end_);
  return tokens_[i_++];
}

void TokenCursor::expect(const char* t) {
  const Token& tok = next(t);
  if (tok.quoted || tok.text != t)
    fail(ErrorCode::kParse,
         std::string("expected '") + t + "', got '" + tok.text + "'",
         tok.loc);
}

double TokenCursor::real(const Token& t) const {
  const Number n = read_number(t.text, /*integer=*/false);
  if (n.out_of_range)
    fail(ErrorCode::kInvalidValue,
         "number '" + t.text + "' is out of range", t.loc);
  if (!n.value)
    fail(ErrorCode::kInvalidValue,
         t.text.empty() ? std::string("expected a number, got an empty token")
                        : "expected a number, got '" + t.text + "'",
         t.loc);
  return *n.value;
}

int TokenCursor::integer(const Token& t) const {
  const Number n = read_number(t.text, /*integer=*/true);
  if (!n.value && !n.out_of_range)
    fail(ErrorCode::kInvalidValue,
         "expected an integer, got '" + t.text + "'", t.loc);
  if (!n.value || *n.value < -1e6 || *n.value > 1e6)
    fail(ErrorCode::kInvalidValue,
         "integer '" + t.text + "' is out of range", t.loc);
  return static_cast<int>(*n.value);
}

}  // namespace gap::common
