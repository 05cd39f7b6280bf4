#include "netlist/verilog.hpp"

#include <cctype>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/source_reader.hpp"

namespace gap::netlist {
namespace {

using library::Func;

std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_';
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
    out = "n_" + out;
  return out;
}

/// Deterministic unique-name assignment.
class Namer {
 public:
  std::string name(const std::string& wanted) {
    std::string base = sanitize(wanted);
    auto [it, fresh] = used_.emplace(base, 0);
    if (fresh) return base;
    std::string candidate;
    do {
      candidate = base + "_" + std::to_string(++it->second);
    } while (!used_.emplace(candidate, 0).second);
    return candidate;
  }

 private:
  std::unordered_map<std::string, int> used_;
};

/// Lossless double for directive values (matches the Liberty writer's
/// 17-digit precision).
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string verilog_input_pin(Func f, int pin) {
  return library::input_pin_name(f, pin);
}

std::string verilog_output_pin(Func f) {
  return library::output_pin_name(f);
}

void write_verilog(const Netlist& nl, std::ostream& os) {
  Namer namer;
  std::vector<std::string> net_name(nl.num_nets());
  // Ports claim their names first so sanitization collisions fall on
  // internal wires. When several ports share one net (a PI feeding a PO
  // directly, or two POs on one driver) the first port's name wins and
  // the aliases resolve to the same identifier.
  for (PortId p : nl.all_ports())
    if (net_name[nl.port(p).net.index()].empty())
      net_name[nl.port(p).net.index()] = namer.name(nl.port(p).name);
  for (NetId n : nl.all_nets())
    if (net_name[n.index()].empty())
      net_name[n.index()] = namer.name(nl.net(n).name);

  os << "// generated by gap::netlist::write_verilog\n";
  os << "// cells reference the '" << nl.lib().name()
     << "' library; clock pins are implicit\n";
  os << "module " << sanitize(nl.name()) << " (";
  bool first = true;
  for (PortId p : nl.all_ports()) {
    os << (first ? "" : ", ") << net_name[nl.port(p).net.index()];
    first = false;
  }
  os << ");\n";

  for (PortId p : nl.all_ports())
    os << "  " << (nl.port(p).is_input ? "input" : "output") << " "
       << net_name[nl.port(p).net.index()] << ";\n";

  for (NetId n : nl.all_nets()) {
    bool is_port_net = false;
    for (PortId p : nl.all_ports())
      if (nl.port(p).net == n) is_port_net = true;
    if (!is_port_net) os << "  wire " << net_name[n.index()] << ";\n";
  }

  Namer inst_namer;
  std::vector<std::string> inst_name(nl.num_instances());
  for (InstanceId id : nl.all_instances()) {
    const Instance& inst = nl.instance(id);
    const library::Cell& c = nl.cell_of(id);
    inst_name[id.index()] = inst_namer.name(inst.name);
    os << "  " << sanitize(c.name) << " " << inst_name[id.index()] << " (";
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin)
      os << "." << verilog_input_pin(c.func, static_cast<int>(pin)) << "("
         << net_name[inst.inputs[pin].index()] << "), ";
    os << "." << verilog_output_pin(c.func) << "("
       << net_name[inst.output.index()] << "));\n";
  }
  os << "endmodule\n";

  // Annotation directives, only for non-default values: a netlist without
  // annotations emits exactly what earlier writers emitted.
  for (PortId p : nl.all_ports()) {
    const Port& port = nl.port(p);
    if (port.is_input && port.ext_drive != 8.0)
      os << "// gap: drive " << net_name[port.net.index()] << " "
         << num(port.ext_drive) << "\n";
  }
  for (NetId n : nl.all_nets()) {
    // The reader reconstructs extra_cap_units as 1.0 per primary-output
    // sink; a directive is only needed when the true value differs.
    int po_sinks = 0;
    for (const NetSink& s : nl.net(n).sinks)
      if (s.kind == NetSink::Kind::kPrimaryOutput) ++po_sinks;
    if (po_sinks > 0 &&
        nl.net(n).extra_cap_units != static_cast<double>(po_sinks))
      os << "// gap: load " << net_name[n.index()] << " "
         << num(nl.net(n).extra_cap_units) << "\n";
  }
  for (NetId n : nl.all_nets())
    if (nl.net(n).length_um != 0.0)
      os << "// gap: length " << net_name[n.index()] << " "
         << num(nl.net(n).length_um) << "\n";
  for (InstanceId id : nl.all_instances())
    if (nl.instance(id).clock_phase != 0)
      os << "// gap: phase " << inst_name[id.index()] << " "
         << nl.instance(id).clock_phase << "\n";
  for (PortId p : nl.all_ports()) {
    const Port& port = nl.port(p);
    if (!port.is_input) continue;
    if (!port.domain.empty())
      os << "// gap: domain " << net_name[port.net.index()] << " "
         << sanitize(port.domain) << "\n";
    if (port.tie == 0 || port.tie == 1)
      os << "// gap: tie " << net_name[port.net.index()] << " " << port.tie
         << "\n";
    if (port.is_reset)
      os << "// gap: reset " << net_name[port.net.index()] << " 1\n";
  }
  for (InstanceId id : nl.all_instances())
    if (nl.instance(id).has_reset)
      os << "// gap: hasreset " << inst_name[id.index()] << " 1\n";
}

std::string to_verilog(const Netlist& nl) {
  std::ostringstream os;
  write_verilog(nl, os);
  return os.str();
}

namespace {

using common::ErrorCode;
using common::SourceLoc;
using common::Token;

constexpr const char* kSource = "verilog";

/// One `// gap: key name value` annotation.
struct Directive {
  std::string key;
  Token name;
  Token value;
};

/// Minimal tokenizer for the emitted subset, tracking line:column.
struct LexResult {
  std::vector<Token> tokens;
  std::vector<Directive> directives;
  SourceLoc end;  ///< location just past the last character
};

/// Split a `gap:` comment body into a directive; `start` locates the first
/// character of `body` so each word carries a precise column.
Directive parse_directive(const std::string& body, SourceLoc start) {
  std::vector<Token> words;
  for (std::size_t i = 0; i < body.size();) {
    if (std::isspace(static_cast<unsigned char>(body[i]))) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < body.size() &&
           !std::isspace(static_cast<unsigned char>(body[i])))
      ++i;
    words.push_back(Token{body.substr(begin, i - begin),
                          SourceLoc{start.line,
                                    start.column + static_cast<int>(begin)}});
  }
  // words[0] is the "gap:" marker itself.
  if (words.size() != 4)
    common::fail(kSource, ErrorCode::kParse,
                 "malformed gap directive: expected '// gap: <key> <name> "
                 "<value>'",
                 start);
  return Directive{words[1].text, words[2], words[3]};
}

LexResult lex(const std::string& text) {
  LexResult out;
  SourceLoc pos{1, 1};
  std::string cur;
  SourceLoc cur_loc;
  auto flush = [&] {
    if (!cur.empty()) {
      out.tokens.push_back(Token{cur, cur_loc});
      cur.clear();
    }
  };
  const auto advance = [&pos](char c) { common::advance(pos, c); };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      flush();
      advance(text[i++]);
      advance(text[i++]);
      const SourceLoc body_start = pos;
      std::string body;
      while (i < text.size() && text[i] != '\n') {
        body += text[i];
        advance(text[i++]);
      }
      if (i < text.size()) advance(text[i]);
      // Only comments whose first word is `gap:` are directives; anything
      // else stays an ignored comment.
      const std::size_t first = body.find_first_not_of(" \t");
      if (first != std::string::npos &&
          body.compare(first, 4, "gap:") == 0 &&
          (first + 4 == body.size() ||
           std::isspace(static_cast<unsigned char>(body[first + 4]))))
        out.directives.push_back(parse_directive(body, body_start));
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else if (c == '(' || c == ')' || c == ',' || c == ';' || c == '.') {
      flush();
      out.tokens.push_back(Token{std::string(1, c), pos});
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

[[nodiscard]] bool is_identifier(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')
    return false;
  for (char c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  return true;
}

class Parser : common::TokenCursor {
 public:
  Parser(LexResult lexed, const library::CellLibrary& lib, bool lenient)
      : TokenCursor(kSource, std::move(lexed.tokens), lexed.end),
        directives_(std::move(lexed.directives)),
        lib_(lib),
        lenient_(lenient) {}

  LenientParse parse() {
    // Cell lookup by sanitized name.
    std::unordered_map<std::string, CellId> cells;
    for (std::uint32_t c = 0; c < lib_.size(); ++c)
      cells.emplace(sanitize(lib_.cell(CellId{c}).name), CellId{c});

    expect("module");
    LenientParse result{Netlist(identifier("module name"), &lib_), {}};
    Netlist& nl = result.nl;
    expect("(");
    while (!at_end() && cur().text != ")") {
      next("port name");  // port order comes from the declarations below
      if (!at_end() && cur().text == ",") next(",");
    }
    expect(")");
    expect(";");

    std::unordered_map<std::string, NetId> nets;
    std::unordered_map<std::string, PortId> input_ports;
    std::unordered_map<std::string, InstanceId> instances;
    std::vector<std::pair<std::string, NetId>> outputs;

    auto net_of = [&](const Token& t) {
      if (!is_identifier(t.text))
        fail(ErrorCode::kParse, "expected a net name, got '" + t.text + "'",
             t.loc);
      auto it = nets.find(t.text);
      if (it == nets.end())
        fail(ErrorCode::kUnknownName, "unknown net '" + t.text + "'", t.loc);
      return it->second;
    };
    auto synthetic_net = [&] {
      return nl.add_net(nl.fresh_name(kSyntheticNetPrefix));
    };
    auto violation = [&](VerilogViolation v) {
      result.violations.push_back(std::move(v));
    };

    while (!at_end() && cur().text != "endmodule") {
      const Token tok = next("declaration or instantiation");
      if (tok.text == "input" || tok.text == "wire") {
        const Token name = next("net name");
        if (!is_identifier(name.text))
          fail(ErrorCode::kParse,
               "expected a net name, got '" + name.text + "'", name.loc);
        expect(";");
        if (nets.count(name.text))
          fail(ErrorCode::kDuplicate, "redeclaration of '" + name.text + "'",
               name.loc);
        NetId n;
        if (tok.text == "input") {
          const PortId p = nl.add_input(name.text);
          input_ports.emplace(name.text, p);
          n = nl.port(p).net;
        } else {
          n = nl.add_net(name.text);
        }
        nets.emplace(name.text, n);
      } else if (tok.text == "output") {
        const Token name = next("net name");
        if (!is_identifier(name.text))
          fail(ErrorCode::kParse,
               "expected a net name, got '" + name.text + "'", name.loc);
        expect(";");
        // An output may alias an already-declared net (shared port nets).
        auto it = nets.find(name.text);
        const NetId n = it != nets.end() ? it->second : nl.add_net(name.text);
        nets.emplace(name.text, n);
        outputs.emplace_back(name.text, n);
      } else {
        // Cell instantiation: CELL INST ( .pin ( net ) , ... ) ;
        const auto cit = cells.find(tok.text);
        if (cit == cells.end())
          fail(ErrorCode::kUnknownName, "unknown cell '" + tok.text + "'",
               tok.loc);
        const library::Cell& c = lib_.cell(cit->second);
        const std::string inst_name = identifier("instance name");
        expect("(");
        std::vector<NetId> inputs(static_cast<std::size_t>(c.num_inputs()));
        NetId out;
        Token out_tok;
        while (true) {
          expect(".");
          const Token pin = next("pin name");
          expect("(");
          const Token net_tok = next("net name");
          const NetId n = net_of(net_tok);
          expect(")");
          if (pin.text == verilog_output_pin(c.func)) {
            if (out.valid())
              fail(ErrorCode::kDuplicate,
                   "output pin of '" + inst_name + "' connected twice",
                   pin.loc);
            out = n;
            out_tok = net_tok;
          } else {
            bool matched = false;
            for (int k = 0; k < c.num_inputs(); ++k)
              if (pin.text == verilog_input_pin(c.func, k)) {
                if (inputs[static_cast<std::size_t>(k)].valid())
                  fail(ErrorCode::kDuplicate,
                       "pin '" + pin.text + "' of '" + inst_name +
                           "' connected twice",
                       pin.loc);
                inputs[static_cast<std::size_t>(k)] = n;
                matched = true;
              }
            if (!matched)
              fail(ErrorCode::kUnknownName,
                   "cell '" + c.name + "' has no pin '" + pin.text + "'",
                   pin.loc);
          }
          if (!at_end() && cur().text == ",") {
            next(",");
            continue;
          }
          break;
        }
        expect(")");
        expect(";");
        if (!out.valid()) {
          if (!lenient_)
            fail(ErrorCode::kStructural,
                 "instance '" + inst_name + "' leaves its output unconnected",
                 tok.loc);
          violation({VerilogViolation::Kind::kUnconnectedOutput, "",
                     inst_name, verilog_output_pin(c.func), tok.loc,
                     "instance '" + inst_name +
                         "' leaves its output unconnected"});
          out = synthetic_net();
        }
        for (int k = 0; k < c.num_inputs(); ++k)
          if (!inputs[static_cast<std::size_t>(k)].valid()) {
            if (!lenient_)
              fail(ErrorCode::kStructural,
                   "instance '" + inst_name + "' leaves pin '" +
                       verilog_input_pin(c.func, k) + "' unconnected",
                   tok.loc);
            violation({VerilogViolation::Kind::kFloatingInput, "", inst_name,
                       verilog_input_pin(c.func, k), tok.loc,
                       "instance '" + inst_name + "' leaves pin '" +
                           verilog_input_pin(c.func, k) + "' unconnected"});
            inputs[static_cast<std::size_t>(k)] = synthetic_net();
          }
        if (nl.net(out).driver.kind != NetDriver::Kind::kNone) {
          if (!lenient_)
            fail(ErrorCode::kStructural,
                 "net '" + out_tok.text + "' is multiply driven",
                 out_tok.loc);
          violation({VerilogViolation::Kind::kMultiplyDriven, out_tok.text,
                     inst_name, "", out_tok.loc,
                     "net '" + out_tok.text + "' is multiply driven"});
          // Sever the extra claim so the netlist stays single-driver.
          out = synthetic_net();
        }
        const InstanceId iid =
            nl.add_instance(inst_name, cit->second, std::move(inputs), out);
        instances.emplace(inst_name, iid);
      }
    }
    expect("endmodule");
    if (!at_end())
      fail(ErrorCode::kParse, "unexpected input after 'endmodule'",
           cur().loc);
    for (const auto& [name, net] : outputs) nl.add_output(name, net);

    // Apply annotation directives now that every name is known.
    std::unordered_map<std::string, NetId> output_nets(outputs.begin(),
                                                       outputs.end());
    for (const Directive& d : directives_) {
      // The named target, then the value: a directive on an unknown name
      // is reported as such whatever its value.
      const auto target = [&d, this](const auto& names, const char* what) {
        const auto it = names.find(d.name.text);
        if (it == names.end())
          fail(ErrorCode::kUnknownName,
               "gap directive: unknown " + std::string(what) + " '" +
                   d.name.text + "'",
               d.name.loc);
        return it->second;
      };
      const auto non_negative = [&d, this] {
        const double v = real(d.value);
        if (v < 0.0)
          fail(ErrorCode::kInvalidValue,
               "gap directive: " + d.key + " must be non-negative",
               d.value.loc);
        return v;
      };
      const auto zero_or_one = [&d, this] {
        const int v = integer(d.value);
        if (v != 0 && v != 1)
          fail(ErrorCode::kInvalidValue,
               "gap directive: " + d.key + " must be 0 or 1", d.value.loc);
        return v;
      };
      if (d.key == "drive") {
        const PortId p = target(input_ports, "input port");
        nl.port(p).ext_drive = non_negative();
      } else if (d.key == "load") {
        const NetId n = target(output_nets, "output port");
        nl.net(n).extra_cap_units = non_negative();
      } else if (d.key == "length") {
        const NetId n = target(nets, "net");
        nl.net(n).length_um = non_negative();
      } else if (d.key == "phase") {
        const InstanceId i = target(instances, "instance");
        const int v = integer(d.value);
        if (v < 0)
          fail(ErrorCode::kInvalidValue,
               "gap directive: phase must be non-negative", d.value.loc);
        nl.instance(i).clock_phase = v;
      } else if (d.key == "domain") {
        const PortId p = target(input_ports, "input port");
        if (!is_identifier(d.value.text))
          fail(ErrorCode::kInvalidValue,
               "gap directive: domain name must be an identifier, got '" +
                   d.value.text + "'",
               d.value.loc);
        nl.port(p).domain = d.value.text;
      } else if (d.key == "tie") {
        const PortId p = target(input_ports, "input port");
        nl.port(p).tie = zero_or_one();
      } else if (d.key == "reset") {
        const PortId p = target(input_ports, "input port");
        nl.port(p).is_reset = zero_or_one() != 0;
      } else if (d.key == "hasreset") {
        const InstanceId i = target(instances, "instance");
        nl.instance(i).has_reset = zero_or_one() != 0;
      } else {
        fail(ErrorCode::kUnknownName,
             "unknown gap directive '" + d.key + "'", d.name.loc);
      }
    }
    return result;
  }

 private:
  std::string identifier(const char* what) {
    const Token& tok = next(what);
    if (!is_identifier(tok.text))
      fail(ErrorCode::kParse,
           std::string("expected ") + what + ", got '" + tok.text + "'",
           tok.loc);
    return tok.text;
  }

  std::vector<Directive> directives_;
  const library::CellLibrary& lib_;
  bool lenient_ = false;
};

}  // namespace

common::Result<Netlist> read_verilog(const std::string& text,
                                     const library::CellLibrary& lib) {
  return common::guarded_read<Netlist>(kSource, [&]() -> Netlist {
    Parser parser(lex(text), lib, /*lenient=*/false);
    return std::move(parser.parse().nl);
  });
}

common::Result<LenientParse> read_verilog_lenient(
    const std::string& text, const library::CellLibrary& lib) {
  return common::guarded_read<LenientParse>(kSource, [&] {
    Parser parser(lex(text), lib, /*lenient=*/true);
    return parser.parse();
  });
}

}  // namespace gap::netlist
