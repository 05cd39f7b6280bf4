#pragma once
/// \file protocol.hpp
/// The gap-serve-v1 wire protocol: line-delimited JSON over stdin/stdout.
/// One request line in, exactly one reply line out, always — malformed,
/// truncated, oversized or semantically bogus frames come back as coded,
/// structured error replies and never abort the server (the PR 2
/// diagnostics discipline extended to the wire; docs/gapd.md).
///
/// Request frame (one JSON object per line):
///   {"id":7,"cmd":"edit","session":"s1","edit":{"op":"set_drive",...}}
/// Reply frame:
///   {"serve":"gap-serve-v1","id":7,"ok":true,"result":{...}}
///   {"serve":"gap-serve-v1","id":7,"ok":false,
///    "error":{"code":"invalid_value","message":"...","line":1,"column":9}}
///
/// Error codes on the wire are the common::ErrorCode taxonomy in
/// lower_snake spelling plus two serve-level conditions: "overloaded"
/// (backpressure: session/journal caps reached) and "deadline" (the
/// request's watchdog budget expired).

#include <cstdint>
#include <string>

#include "common/json.hpp"
#include "common/status.hpp"
#include "sta/incremental.hpp"

namespace gap::serve {

inline constexpr const char* kProtocolName = "gap-serve-v1";

/// Wire error vocabulary: common::ErrorCode plus serve-level conditions.
enum class ReplyCode : std::uint8_t {
  kUsage,
  kMissingValue,
  kUnknownName,
  kParse,
  kInvalidValue,
  kDuplicate,
  kStructural,
  kContract,
  kIo,
  kInternal,
  kLint,
  kOverloaded,  ///< backpressure: a resource cap would be exceeded
  kDeadline,    ///< watchdog: the per-request deadline expired
};

/// Stable wire spelling ("invalid_value", "overloaded", ...).
[[nodiscard]] const char* to_string(ReplyCode code);

/// Map a diagnostics-layer code onto the wire vocabulary.
[[nodiscard]] ReplyCode reply_code(common::ErrorCode code);

/// One parsed request frame. `id_json` is the compact re-serialization of
/// the frame's "id" member ("null" when absent), echoed verbatim into the
/// reply so pipelined clients can match replies to requests.
struct Request {
  std::string id_json = "null";
  std::string cmd;
  common::json::Value frame;  ///< the whole frame object (for params)
};

/// Parse and validate one frame line. Enforces `max_frame_bytes` before
/// parsing, requires a JSON object with a string "cmd", and never throws.
[[nodiscard]] common::Result<Request> parse_request(
    const std::string& line, std::size_t max_frame_bytes);

/// Open the single-line success reply in `w` (a compact Writer) up to its
/// "result" member: the caller writes the result value, then closes the
/// reply with w.end_object(). gapd renders every result this way,
/// straight into the reply.
void begin_ok_reply(common::json::Writer& w, const std::string& id_json);

/// The success reply around an already-rendered compact result.
[[nodiscard]] std::string ok_reply(const std::string& id_json,
                                   const std::string& result_json);

/// Build the single-line error reply. `loc`, when valid, adds
/// line/column members locating the offending byte of the request.
[[nodiscard]] std::string error_reply(const std::string& id_json,
                                      ReplyCode code,
                                      const std::string& message,
                                      common::SourceLoc loc = {});

// --- Edit codec: the sta::Edit API as the wire payload -------------------

/// Parse an edit object:
///   {"op":"replace_cell","inst":N,"cell":"nand2_x4"}   (or "cell_id":N)
///   {"op":"set_drive","inst":N,"drive":3.5}
///   {"op":"rewire","inst":N,"pin":P,"net":M}
///   {"op":"set_clock","skew_fraction":F,"extra_skew_tau":F}
/// Type/range violations come back as coded errors; semantic validation
/// against a netlist is the timer's job (IncrementalTimer::check).
[[nodiscard]] common::Result<sta::Edit> edit_from_json(
    const common::json::Value& v);

/// Compact one-line serialization; edit_from_json(parse(edit_to_json(e)))
/// reproduces `e` (the journal and the undo replies rely on this).
void edit_to_json(common::json::Writer& w, const sta::Edit& e);
[[nodiscard]] std::string edit_to_json(const sta::Edit& e);

}  // namespace gap::serve
