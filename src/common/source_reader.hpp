#pragma once
/// \file source_reader.hpp
/// Plumbing shared by the untrusted-text readers: the one strict number
/// rule (argv, Liberty, Verilog, gaplint.toml), and the token cursor,
/// error unwinding and guarded entry of the Liberty and Verilog parsers.
/// Each reader keeps its own lexer (character rules) and grammar; only
/// what they share lives here.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"

namespace gap::common {

/// What read_number() found in one token.
struct Number {
  std::optional<double> value;  ///< set iff the token is a finite number
  /// The token is a well-formed number that is not a finite double
  /// (`inf`, `nan`, or past a double's range, as `1e999` and `1e-999`
  /// are) or, for an integer, not an int64.
  bool out_of_range = false;
};

/// The one number rule for untrusted text: the whole token, base 10, no
/// whitespace, no leading '+', no hex, locale-free. An integer has no
/// fraction or exponent.
[[nodiscard]] Number read_number(std::string_view text, bool integer);

/// One lexed token and where it starts.
struct Token {
  std::string text;
  SourceLoc loc;
  bool quoted = false;  ///< came from a "..." string literal
};

/// Unwinds a reader to its guarded entry with its first error.
struct ParseError {
  Status status;
};

/// Throw the error `source` ("liberty", "verilog") reports at `loc`.
[[noreturn]] void fail(const char* source, ErrorCode code,
                       std::string message, SourceLoc loc);

/// Move `pos` past character `c`.
void advance(SourceLoc& pos, char c);

/// A recursive-descent parser's view of its token stream. Every error
/// carries a code and the line:column of the token it is about, or of the
/// end of input.
class TokenCursor {
 public:
  TokenCursor(const char* source, std::vector<Token> tokens, SourceLoc end)
      : source_(source), tokens_(std::move(tokens)), end_(end) {}

 protected:
  [[nodiscard]] bool at_end() const { return i_ >= tokens_.size(); }
  [[nodiscard]] const Token& cur() const { return tokens_[i_]; }
  [[nodiscard]] SourceLoc here() const { return at_end() ? end_ : cur().loc; }

  /// Consume one token; `what` names it if the input ended instead.
  const Token& next(const char* what);
  /// Consume the unquoted token `t`.
  void expect(const char* t);

  [[noreturn]] void fail(ErrorCode code, std::string message,
                         SourceLoc loc) const {
    common::fail(source_, code, std::move(message), loc);
  }

  /// `t` under the number rule, else kInvalidValue.
  [[nodiscard]] double real(const Token& t) const;
  /// `t` as an integer in [-1e6, 1e6] under the number rule, else
  /// kInvalidValue.
  [[nodiscard]] int integer(const Token& t) const;

 private:
  const char* source_;
  std::vector<Token> tokens_;
  SourceLoc end_;
  std::size_t i_ = 0;
};

/// Run `body` as the reader `source`: its ParseError becomes the failed
/// Result, and a tripped internal contract or any other exception a
/// kContract or kInternal one, never an abort. The contract capture is
/// scoped to this thread and this call.
template <typename T, typename Fn>
Result<T> guarded_read(const char* source, Fn&& body) {
  try {
    const ScopedContractCapture guard;
    return body();
  } catch (const ParseError& e) {
    return e.status;
  } catch (const ContractViolation& v) {
    return Status::error(ErrorCode::kContract, v.what(), {}, source);
  } catch (const std::exception& e) {
    return Status::error(ErrorCode::kInternal, e.what(), {}, source);
  }
}

}  // namespace gap::common
