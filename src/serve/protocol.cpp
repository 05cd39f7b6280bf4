#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>

namespace gap::serve {

namespace json = common::json;
using common::ErrorCode;
using common::Result;
using common::Status;

Result<Request> parse_request(const std::string& line,
                              std::size_t max_frame_bytes) {
  if (max_frame_bytes != 0 && line.size() > max_frame_bytes)
    return Status::error(ErrorCode::kInvalidValue,
                         "frame exceeds " + std::to_string(max_frame_bytes) +
                             " bytes",
                         {}, "serve");
  auto parsed = json::Value::parse_checked(line);
  if (!parsed.ok()) return parsed.status();
  Request r;
  r.frame = std::move(parsed).value();
  if (!r.frame.is_object())
    return Status::error(ErrorCode::kParse, "frame must be a JSON object",
                         {}, "serve");
  if (const json::Value* id = r.frame.find("id")) {
    // Echoed into the reply, so it must be JSON: "1e999" parses to inf.
    json::Writer w;
    id->write(w);
    if (!w.ok())
      return Status::error(ErrorCode::kInvalidValue,
                           "\"id\" holds a " + w.error(), {}, "serve");
    r.id_json = w.take();
  }
  const json::Value* cmd = r.frame.find("cmd");
  if (cmd == nullptr)
    return Status::error(ErrorCode::kMissingValue,
                         "frame has no \"cmd\" member", {}, "serve");
  if (!cmd->is_string())
    return Status::error(ErrorCode::kInvalidValue, "\"cmd\" must be a string",
                         {}, "serve");
  r.cmd = cmd->str;
  return r;
}

void begin_ok_reply(json::Writer& w, const std::string& id_json) {
  w.begin_object().member("serve", kProtocolName).key("id").raw(id_json);
  w.member("ok", true).key("result");
}

std::string ok_reply(const std::string& id_json,
                     const std::string& result_json) {
  json::Writer w;
  begin_ok_reply(w, id_json);
  w.raw(result_json).end_object();
  return w.take();
}

std::string error_reply(const std::string& id_json, const Status& st) {
  std::string code = common::to_string(st.code());
  std::replace(code.begin(), code.end(), '-', '_');
  json::Writer w;
  w.begin_object().member("serve", kProtocolName).key("id").raw(id_json);
  w.member("ok", false).key("error").begin_object();
  w.member("code", code).member("message", st.message());
  if (st.loc().valid())
    w.member("line", st.loc().line).member("column", st.loc().column);
  w.end_object().end_object();
  return w.take();
}

namespace {

Status edit_error(const std::string& msg) {
  return Status::error(ErrorCode::kInvalidValue, msg, {}, "serve");
}

/// A 32-bit id field: present, a number, integral, in range.
Result<std::uint32_t> id_field(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  if (f == nullptr)
    return edit_error(std::string("edit is missing \"") + key + "\"");
  if (!f->is_number() || f->num < 0.0 || f->num >= 4294967295.0 ||
      f->num != std::floor(f->num))
    return edit_error(std::string("edit field \"") + key +
                      "\" must be a 32-bit unsigned integer");
  return static_cast<std::uint32_t>(f->num);
}

/// A bounded numeric field. The bounds are wire-level sanity limits:
/// JSON text can encode overflowing literals ("1e999" -> inf) and
/// extreme-but-finite values that push downstream timing arithmetic out
/// of range, so the codec rejects anything outside [lo, hi] before the
/// engine ever sees it.
Result<double> num_field(const json::Value& v, const char* key, double lo,
                         double hi) {
  const json::Value* f = v.find(key);
  if (f == nullptr)
    return edit_error(std::string("edit is missing \"") + key + "\"");
  if (!f->is_number() || !std::isfinite(f->num) || f->num < lo ||
      f->num > hi)
    return edit_error(std::string("edit field \"") + key +
                      "\" must be a number in [" + json::number(lo) + ", " +
                      json::number(hi) + "]");
  return f->num;
}

}  // namespace

Result<sta::Edit> edit_from_json(const json::Value& v) {
  if (!v.is_object()) return edit_error("edit must be a JSON object");
  const json::Value* op_field = v.find("op");
  if (op_field == nullptr) return edit_error("edit is missing \"op\"");
  if (!op_field->is_string() || op_field->str.empty())
    return edit_error("edit field \"op\" must be a string");
  const std::string& op = op_field->str;
  if (op == "replace_cell") {
    auto inst = id_field(v, "inst");
    if (!inst.ok()) return inst.status();
    if (const json::Value* cell = v.find("cell")) {
      if (!cell->is_string() || cell->str.empty())
        return edit_error("edit field \"cell\" must be a non-empty string");
      return sta::Edit::replace_cell_named(InstanceId(*inst), cell->str);
    }
    auto cell_id = id_field(v, "cell_id");
    if (!cell_id.ok())
      return edit_error(
          "replace_cell needs \"cell\" (name) or \"cell_id\" (index)");
    return sta::Edit::replace_cell(InstanceId(*inst), CellId(*cell_id));
  }
  if (op == "set_drive") {
    auto inst = id_field(v, "inst");
    if (!inst.ok()) return inst.status();
    auto drive = num_field(v, "drive", 0.0, 1.0e6);
    if (!drive.ok()) return drive.status();
    return sta::Edit::set_drive(InstanceId(*inst), *drive);
  }
  if (op == "rewire") {
    auto inst = id_field(v, "inst");
    if (!inst.ok()) return inst.status();
    auto pin = id_field(v, "pin");
    if (!pin.ok()) return pin.status();
    if (*pin > 1000000) return edit_error("edit field \"pin\" out of range");
    auto net = id_field(v, "net");
    if (!net.ok()) return net.status();
    return sta::Edit::rewire(InstanceId(*inst), static_cast<int>(*pin),
                             NetId(*net));
  }
  if (op == "set_clock") {
    auto skew = num_field(v, "skew_fraction", 0.0, 0.99);
    if (!skew.ok()) return skew.status();
    auto extra = num_field(v, "extra_skew_tau", 0.0, 1.0e9);
    if (!extra.ok()) return extra.status();
    sta::ClockSpec clock;
    clock.skew_fraction = *skew;
    clock.extra_skew_tau = *extra;
    return sta::Edit::set_clock(clock);
  }
  return edit_error("unknown edit op '" + op + "'");
}

void edit_to_json(json::Writer& w, const sta::Edit& e) {
  w.begin_object();
  switch (e.kind) {
    case sta::Edit::Kind::kReplaceCell:
      w.member("op", "replace_cell").member("inst", e.inst.value());
      if (!e.cell_name.empty())
        w.member("cell", e.cell_name);
      else
        w.member("cell_id", e.cell.value());
      break;
    case sta::Edit::Kind::kSetDriveOverride:
      w.member("op", "set_drive").member("inst", e.inst.value());
      w.member("drive", e.drive);
      break;
    case sta::Edit::Kind::kRewireInput:
      w.member("op", "rewire").member("inst", e.inst.value());
      w.member("pin", e.pin).member("net", e.net.value());
      break;
    case sta::Edit::Kind::kSetClock:
      w.member("op", "set_clock");
      w.member("skew_fraction", e.clock.skew_fraction);
      w.member("extra_skew_tau", e.clock.extra_skew_tau);
      break;
  }
  w.end_object();
}

std::string edit_to_json(const sta::Edit& e) {
  json::Writer w;
  edit_to_json(w, e);
  return w.take();
}

}  // namespace gap::serve
