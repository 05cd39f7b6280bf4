#include "library/liberty.hpp"

#include <cctype>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "common/source_reader.hpp"

namespace gap::library {

std::string liberty_function(Func f) {
  switch (f) {
    case Func::kInv: return "!a";
    case Func::kBuf: return "a";
    case Func::kNand2: return "!(a*b)";
    case Func::kNand3: return "!(a*b*c)";
    case Func::kNand4: return "!(a*b*c*d)";
    case Func::kNor2: return "!(a+b)";
    case Func::kNor3: return "!(a+b+c)";
    case Func::kAnd2: return "(a*b)";
    case Func::kAnd3: return "(a*b*c)";
    case Func::kOr2: return "(a+b)";
    case Func::kOr3: return "(a+b+c)";
    case Func::kXor2: return "(a^b)";
    case Func::kXnor2: return "!(a^b)";
    case Func::kAoi21: return "!((a*b)+c)";
    case Func::kOai21: return "!((a+b)*c)";
    case Func::kMux2: return "(c*b)+(!c*a)";
    case Func::kMaj3: return "(a*b)+(a*c)+(b*c)";
    case Func::kDff: return "IQ";   // Liberty ff convention
    case Func::kLatch: return "IQ";
  }
  return "";
}

namespace {

const char* func_name(Func f) { return traits(f).name; }

std::optional<Func> func_from_name(const std::string& name) {
  for (int i = 0; i < kNumFuncs; ++i)
    if (name == traits(static_cast<Func>(i)).name) return static_cast<Func>(i);
  return std::nullopt;
}

}  // namespace

void write_liberty(const CellLibrary& lib, std::ostream& os) {
  const tech::Technology& t = lib.technology();
  os << std::setprecision(17);  // lossless double round-trip
  os << "/* generated by gap::library::write_liberty */\n";
  os << "library (" << lib.name() << ") {\n";
  os << "  time_unit : \"1ps\";\n";
  os << "  capacitive_load_unit (1, ff);\n";
  os << "  gap_technology : \"" << t.name << "\";\n";
  os << "  gap_leff_um : " << t.leff_um << ";\n";
  os << "  gap_drawn_um : " << t.drawn_um << ";\n";
  os << "  gap_vdd_v : " << t.vdd_v << ";\n";
  os << "  gap_unit_inv_cin_ff : " << t.unit_inv_cin_ff << ";\n";
  os << "  gap_wire_r_ohm_per_um : " << t.wire_r_ohm_per_um << ";\n";
  os << "  gap_wire_c_ff_per_um : " << t.wire_c_ff_per_um << ";\n";
  os << "  gap_continuous_sizing : " << (lib.continuous_sizing ? 1 : 0)
     << ";\n";
  os << "  gap_clock_phases : " << lib.clock_phases << ";\n";
  os << "  gap_guard_banded : " << (lib.guard_banded_sequentials ? 1 : 0)
     << ";\n";

  for (std::uint32_t i = 0; i < lib.size(); ++i) {
    const Cell& c = lib.cell(CellId{i});
    os << "  cell (" << c.name << ") {\n";
    os << "    area : " << c.area_um2 << ";\n";
    os << "    gap_func : \"" << func_name(c.func) << "\";\n";
    os << "    gap_family : \""
       << (c.family == Family::kDomino ? "domino" : "static") << "\";\n";
    os << "    gap_drive : " << c.drive << ";\n";
    os << "    gap_logical_effort : " << c.logical_effort << ";\n";
    os << "    gap_parasitic_tau : " << c.parasitic << ";\n";
    if (c.is_sequential()) {
      os << "    gap_setup_tau : " << c.setup_tau << ";\n";
      os << "    gap_clk_to_q_tau : " << c.clk_to_q_tau << ";\n";
      os << "    gap_hold_tau : " << c.hold_tau << ";\n";
    }
    for (int pin = 0; pin < c.num_inputs(); ++pin) {
      os << "    pin (" << input_pin_name(c.func, pin) << ") {\n";
      os << "      direction : input;\n";
      os << "      capacitance : " << c.input_cap() * t.unit_inv_cin_ff
         << ";\n";
      os << "    }\n";
    }
    os << "    pin (" << output_pin_name(c.func) << ") {\n";
    os << "      direction : output;\n";
    os << "      function : \"" << liberty_function(c.func) << "\";\n";
    if (c.max_capacitance_ff > 0.0)
      os << "      max_capacitance : " << c.max_capacitance_ff << ";\n";
    if (c.max_transition_ps > 0.0)
      os << "      max_transition : " << c.max_transition_ps << ";\n";
    if (c.max_fanout > 0.0)
      os << "      max_fanout : " << c.max_fanout << ";\n";
    os << "    }\n";
    os << "  }\n";
  }
  os << "}\n";
}

std::string to_liberty(const CellLibrary& lib) {
  std::ostringstream os;
  write_liberty(lib, os);
  return os.str();
}

namespace {

using common::ErrorCode;
using common::SourceLoc;
using common::Token;

constexpr const char* kSource = "liberty";

/// Tokenizer for the emitted subset: identifiers/numbers, quoted strings,
/// and the punctuation ( ) { } : ; with /* */ comments stripped. Tracks
/// line:column per token; rejects unterminated comments/strings.
struct LexResult {
  std::vector<Token> tokens;
  SourceLoc end;  ///< location just past the last character
};

LexResult lex(const std::string& text) {
  LexResult out;
  SourceLoc pos{1, 1};
  std::string cur;
  SourceLoc cur_loc;
  auto flush = [&] {
    if (!cur.empty()) {
      out.tokens.push_back(Token{cur, cur_loc, false});
      cur.clear();
    }
  };
  const auto advance = [&pos](char c) { common::advance(pos, c); };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      // Tolerated even though the writer never emits it.
      flush();
      while (i < text.size() && text[i] != '\n') advance(text[i++]);
      if (i < text.size()) advance(text[i]);
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      flush();
      const SourceLoc open = pos;
      advance(text[i]);
      advance(text[i + 1]);
      i += 2;
      while (i + 1 < text.size() && !(text[i] == '*' && text[i + 1] == '/'))
        advance(text[i++]);
      if (i + 1 >= text.size())
        common::fail(kSource, ErrorCode::kParse, "unterminated comment",
                     open);
      advance(text[i]);
      advance(text[i + 1]);
      ++i;
      continue;
    }
    if (c == '"') {
      flush();
      const SourceLoc open = pos;
      advance(c);
      std::string s;
      ++i;
      while (i < text.size() && text[i] != '"') {
        s += text[i];
        advance(text[i++]);
      }
      if (i >= text.size())
        common::fail(kSource, ErrorCode::kParse, "unterminated string literal",
                     open);
      advance(text[i]);  // closing quote
      out.tokens.push_back(Token{std::move(s), open, true});
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      flush();
    } else if (c == '(' || c == ')' || c == '{' || c == '}' || c == ':' ||
               c == ';') {
      flush();
      out.tokens.push_back(Token{std::string(1, c), pos, false});
    } else {
      if (cur.empty()) cur_loc = pos;
      cur += c;
    }
    advance(c);
  }
  flush();
  out.end = pos;
  return out;
}

class Parser : common::TokenCursor {
 public:
  explicit Parser(LexResult lexed)
      : TokenCursor(kSource, std::move(lexed.tokens), lexed.end) {}

  CellLibrary parse() {
    expect("library");
    expect("(");
    const std::string lib_name = next("library name").text;
    expect(")");
    expect("{");

    tech::Technology t;
    struct LibFlags {
      bool continuous = false;
      int phases = 1;
      bool guard = true;
    } flags;
    std::vector<Cell> cells;
    std::vector<SourceLoc> cell_locs;
    std::set<std::string> cell_names;

    while (!at_end() && cur().text != "}") {
      const Token tok = next("library attribute or cell");
      if (tok.text == "gap_technology") t.name = attr_value().text;
      else if (tok.text == "gap_leff_um")
        t.leff_um = attr_positive("gap_leff_um");
      else if (tok.text == "gap_drawn_um")
        t.drawn_um = attr_positive("gap_drawn_um");
      else if (tok.text == "gap_vdd_v")
        t.vdd_v = attr_positive("gap_vdd_v");
      else if (tok.text == "gap_unit_inv_cin_ff")
        t.unit_inv_cin_ff = attr_positive("gap_unit_inv_cin_ff");
      else if (tok.text == "gap_wire_r_ohm_per_um")
        t.wire_r_ohm_per_um = attr_non_negative("gap_wire_r_ohm_per_um");
      else if (tok.text == "gap_wire_c_ff_per_um")
        t.wire_c_ff_per_um = attr_non_negative("gap_wire_c_ff_per_um");
      else if (tok.text == "gap_continuous_sizing")
        flags.continuous = attr_int() != 0;
      else if (tok.text == "gap_clock_phases") {
        const auto [v, loc] = attr_int_loc();
        if (v < 1)
          fail(ErrorCode::kInvalidValue,
               "gap_clock_phases must be >= 1, got " + std::to_string(v), loc);
        flags.phases = v;
      } else if (tok.text == "gap_guard_banded")
        flags.guard = attr_int() != 0;
      else if (tok.text == "cell") {
        expect("(");
        const Token name = next("cell name");
        Cell c;
        c.name = name.text;
        if (!cell_names.insert(c.name).second)
          fail(ErrorCode::kDuplicate, "duplicate cell '" + c.name + "'",
               name.loc);
        expect(")");
        expect("{");
        parse_cell_body(c);
        expect("}");
        cells.push_back(std::move(c));
        cell_locs.push_back(name.loc);
      } else {
        skip_statement(tok);  // time_unit, capacitive_load_unit, ...
      }
    }
    expect("}");
    if (!at_end())
      fail(ErrorCode::kParse,
           "unexpected input after closing '}' of the library group",
           cur().loc);

    // Semantic validation against downstream invariants (CellLibrary::add
    // requires positive drives; the timing model needs finite values).
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      if (!(c.drive > 0.0))
        fail(ErrorCode::kInvalidValue,
             "cell '" + c.name + "' needs a positive gap_drive", cell_locs[i]);
      if (c.area_um2 < 0.0)
        fail(ErrorCode::kInvalidValue,
             "cell '" + c.name + "' has a negative area", cell_locs[i]);
    }

    CellLibrary lib(lib_name, t);
    lib.continuous_sizing = flags.continuous;
    lib.clock_phases = flags.phases;
    lib.guard_banded_sequentials = flags.guard;
    for (Cell& c : cells) lib.add(std::move(c));
    return lib;
  }

 private:
  Token attr_value() {
    expect(":");
    Token v = next("attribute value");
    expect(";");
    return v;
  }

  double attr_double() { return real(attr_value()); }
  int attr_int() { return integer(attr_value()); }
  std::pair<int, SourceLoc> attr_int_loc() {
    const Token v = attr_value();
    return {integer(v), v.loc};
  }

  double attr_positive(const char* attr) {
    const Token v = attr_value();
    const double d = real(v);
    if (!(d > 0.0))
      fail(ErrorCode::kInvalidValue,
           std::string(attr) + " must be positive, got '" + v.text + "'",
           v.loc);
    return d;
  }
  double attr_non_negative(const char* attr) {
    const Token v = attr_value();
    const double d = real(v);
    if (d < 0.0)
      fail(ErrorCode::kInvalidValue,
           std::string(attr) + " must be non-negative, got '" + v.text + "'",
           v.loc);
    return d;
  }

  /// Consume the rest of an unknown statement: "... ;" or a braced group.
  void skip_statement(const Token& intro) {
    int depth = 0;
    while (!at_end()) {
      const Token& t = next("");
      if (t.quoted) continue;
      if (t.text == "{") ++depth;
      else if (t.text == "}") {
        if (--depth <= 0) {
          if (depth < 0)
            fail(ErrorCode::kParse, "unbalanced '}'", t.loc);
          return;
        }
      } else if (t.text == ";" && depth == 0)
        return;
    }
    fail(ErrorCode::kParse,
         "unterminated statement starting at '" + intro.text + "'", intro.loc);
  }

  /// Parse a `pin (...) { ... }` group inside a cell. Input-pin contents
  /// are fully derived from the gap_* attributes and skipped, but the
  /// output pin may carry electrical design-rule limits that must be
  /// reconstructed (negative limits are rejected; zero means absent).
  void parse_pin_group(Cell& c) {
    expect("(");
    next("pin name");
    expect(")");
    expect("{");
    while (!at_end() && cur().text != "}") {
      const Token attr = next("pin attribute");
      if (attr.text == "max_capacitance")
        c.max_capacitance_ff = attr_non_negative("max_capacitance");
      else if (attr.text == "max_transition")
        c.max_transition_ps = attr_non_negative("max_transition");
      else if (attr.text == "max_fanout")
        c.max_fanout = attr_non_negative("max_fanout");
      else
        skip_statement(attr);  // direction, capacitance, function, ...
    }
    if (at_end())
      fail(ErrorCode::kParse,
           "unexpected end of input inside a pin group of cell '" + c.name +
               "'",
           here());
    expect("}");
  }

  void parse_cell_body(Cell& c) {
    while (!at_end() && cur().text != "}") {
      const Token attr = next("cell attribute");
      if (attr.text == "area") c.area_um2 = attr_double();
      else if (attr.text == "gap_func") {
        const Token v = attr_value();
        const auto f = func_from_name(v.text);
        if (!f)
          fail(ErrorCode::kUnknownName,
               "unknown cell function '" + v.text + "'", v.loc);
        c.func = *f;
      } else if (attr.text == "gap_family") {
        const Token v = attr_value();
        if (v.text == "domino") c.family = Family::kDomino;
        else if (v.text == "static") c.family = Family::kStatic;
        else
          fail(ErrorCode::kInvalidValue,
               "unknown cell family '" + v.text + "'", v.loc);
      } else if (attr.text == "gap_drive") c.drive = attr_double();
      else if (attr.text == "gap_logical_effort")
        c.logical_effort = attr_double();
      else if (attr.text == "gap_parasitic_tau") c.parasitic = attr_double();
      else if (attr.text == "gap_setup_tau") c.setup_tau = attr_double();
      else if (attr.text == "gap_clk_to_q_tau") c.clk_to_q_tau = attr_double();
      else if (attr.text == "gap_hold_tau") c.hold_tau = attr_double();
      else if (attr.text == "pin") parse_pin_group(c);
      else
        skip_statement(attr);  // standard attributes are derived
    }
    if (at_end())
      fail(ErrorCode::kParse,
           "unexpected end of input inside cell '" + c.name + "'", here());
  }
};

}  // namespace

common::Result<CellLibrary> read_liberty(const std::string& text) {
  // Belt and braces: even if a malformed value slips past the semantic
  // validation above, a tripped internal contract surfaces as a failed
  // Status instead of killing the process.
  return common::guarded_read<CellLibrary>(
      kSource, [&] { return Parser(lex(text)).parse(); });
}

}  // namespace gap::library
