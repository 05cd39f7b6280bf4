#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/ids.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/source_reader.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace gap {
namespace {

// --- common::cli: flag table, parser, usage generator ----------------------

/// One flag of every kind, bound to its own destinations.
struct CliOptions {
  enum class Mode { kFast, kSlow };
  bool verbose = false;
  std::string out;
  int count = 1;
  std::optional<double> ratio;
  Mode mode = Mode::kFast;
  bool help = false;

  std::vector<common::cli::Flag> table() {
    namespace cl = common::cli;
    return {cl::switch_flag("--verbose", verbose, "print more"),
            cl::string_flag("--out", out, "FILE", "write the result to FILE"),
            cl::number_flag("--count", count, "N", {0, 8}, "repeat N times"),
            cl::number_flag("--ratio", ratio, "F", {0.0, 1.0}, "mix ratio"),
            cl::choice_flag("--mode", mode,
                            {{"fast", Mode::kFast}, {"slow", Mode::kSlow}},
                            "how to run"),
            cl::help_flag(help)};
  }
};

TEST(Cli, UsageListsEveryTableEntry) {
  CliOptions o;
  const auto table = o.table();
  const std::string text = common::cli::usage(
      "usage: t [options]\n", {{"options:", table}, {"again:", table}},
      "exit codes: 0 ok\n");
  EXPECT_EQ(text.rfind("usage: t [options]\n\noptions:\n", 0), 0u) << text;
  for (const common::cli::Flag& f : table) {
    EXPECT_NE(text.find(f.name), std::string::npos) << f.name;
    EXPECT_NE(text.find(f.help), std::string::npos) << f.help;
  }
  EXPECT_NE(text.find("  --out FILE "), std::string::npos) << text;
  EXPECT_NE(text.find("  --mode fast|slow "), std::string::npos) << text;
  EXPECT_NE(text.find("  -h, --help "), std::string::npos) << text;
  // A flag already listed is not repeated, so the second section is empty.
  EXPECT_EQ(text.find("again:"), std::string::npos) << text;
  EXPECT_EQ(text.substr(text.size() - 18), "\nexit codes: 0 ok\n");
}

TEST(Cli, ParsesBothValueFormsAndOperands) {
  CliOptions o;
  std::vector<std::string> operands;
  const std::vector<std::string> args{"a.v", "--verbose", "--out=x.json",
                                      "--count", "8", "--ratio=0.25",
                                      "--mode", "slow", "-h", "-", "--count=0"};
  ASSERT_TRUE(common::cli::parse(args, o.table(), &operands, 2).ok());
  EXPECT_EQ(operands, (std::vector<std::string>{"a.v", "-"}));
  EXPECT_TRUE(o.verbose);
  EXPECT_EQ(o.out, "x.json");
  EXPECT_EQ(o.count, 0);  // the last value wins
  EXPECT_EQ(o.ratio, 0.25);
  EXPECT_EQ(o.mode, CliOptions::Mode::kSlow);
  EXPECT_TRUE(o.help);
}

TEST(Cli, EveryRejectionCarriesItsCode) {
  using common::ErrorCode;
  struct Case {
    std::vector<std::string> args;
    ErrorCode code;
  };
  const Case cases[] = {
      {{"--bogus"}, ErrorCode::kUsage},
      {{"-x"}, ErrorCode::kUsage},
      {{"--bogus=1"}, ErrorCode::kUsage},
      {{"a", "b"}, ErrorCode::kUsage},  // one operand allowed
      {{"--out"}, ErrorCode::kMissingValue},
      {{"--count"}, ErrorCode::kMissingValue},
      {{"--verbose=yes"}, ErrorCode::kInvalidValue},
      {{"--count="}, ErrorCode::kInvalidValue},
      {{"--count", "9"}, ErrorCode::kInvalidValue},
      {{"--count", "-1"}, ErrorCode::kInvalidValue},
      {{"--count", " 3"}, ErrorCode::kInvalidValue},
      {{"--count", "3 "}, ErrorCode::kInvalidValue},
      {{"--count", "+3"}, ErrorCode::kInvalidValue},
      {{"--count", "0x3"}, ErrorCode::kInvalidValue},
      {{"--count", "3.0"}, ErrorCode::kInvalidValue},
      {{"--count", "1e0"}, ErrorCode::kInvalidValue},
      {{"--count", "99999999999999999999"}, ErrorCode::kInvalidValue},
      {{"--ratio", "1.5"}, ErrorCode::kInvalidValue},
      {{"--ratio", "-0.1"}, ErrorCode::kInvalidValue},
      {{"--ratio", "nan"}, ErrorCode::kInvalidValue},
      {{"--ratio", "inf"}, ErrorCode::kInvalidValue},
      {{"--ratio", "1e999"}, ErrorCode::kInvalidValue},
      {{"--ratio", "0x0.8p0"}, ErrorCode::kInvalidValue},
      {{"--mode", "medium"}, ErrorCode::kInvalidValue},
      {{"--mode="}, ErrorCode::kInvalidValue},
  };
  for (const Case& c : cases) {
    CliOptions o;
    std::vector<std::string> operands;
    const common::Status s =
        common::cli::parse(c.args, o.table(), &operands, 1);
    ASSERT_FALSE(s.ok()) << c.args[0];
    EXPECT_EQ(s.code(), c.code) << s.message();
    EXPECT_NE(s.message().find(c.args[0].substr(0, c.args[0].find('='))),
              std::string::npos)
        << s.message();
  }
  // Without an operand list, any operand is a usage error.
  CliOptions o;
  EXPECT_EQ(common::cli::parse(std::vector<std::string>{"a"}, o.table())
                .code(),
            ErrorCode::kUsage);
}

// --- common::read_number: the one number rule ----------------------------

TEST(ReadNumber, OneRuleForArgvAndEveryFileReader) {
  struct Read {
    std::optional<double> value;
    bool out_of_range = false;
  };
  const Read bad{};
  const Read huge{std::nullopt, true};
  struct Case {
    const char* text;
    Read real;
    Read integer;
  };
  // The argv mutant table's numbers (fault_injection_test.cpp), then the
  // hex and '+' spellings the file readers used to accept, and underflow.
  const Case cases[] = {
      {" 4", bad, bad},
      {"4 ", bad, bad},
      {"0x10", bad, bad},
      {"-3", {-3.0}, {-3.0}},
      {"+4", bad, bad},
      {"4.5", {4.5}, bad},
      {"99999999999999999999", {1e20}, huge},
      {"1e999", huge, bad},
      {"nan", huge, bad},
      {"inf", huge, bad},
      {"-inf", huge, bad},
      {"", bad, bad},
      {"1e3", {1000.0}, bad},
      {"0x28", bad, bad},
      {"+40", bad, bad},
      {"0x1.4p5", bad, bad},
      {"1e-999", huge, bad},
  };
  for (const Case& c : cases) {
    for (const bool integer : {false, true}) {
      const Read& want = integer ? c.integer : c.real;
      const common::Number got = common::read_number(c.text, integer);
      EXPECT_EQ(got.value, want.value) << "'" << c.text << "' " << integer;
      EXPECT_EQ(got.out_of_range, want.out_of_range)
          << "'" << c.text << "' " << integer;
    }
  }
}

TEST(Ids, DefaultIsInvalid) {
  NetId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, NetId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  NetId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
  EXPECT_EQ(id.index(), 42u);
}

TEST(Ids, Comparable) {
  EXPECT_LT(NetId{1}, NetId{2});
  EXPECT_EQ(NetId{7}, NetId{7});
  EXPECT_NE(NetId{7}, NetId{8});
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(5.0, 6.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 6.0);
  }
}

TEST(Rng, UniformIndexCoversAll) {
  Rng r(11);
  bool seen[5] = {};
  for (int i = 0; i < 1000; ++i) seen[r.uniform_index(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  SampleStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, SplitIndependent) {
  Rng a(17);
  Rng b = a.split();
  // Streams should not be identical.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Stats, MeanMinMax) {
  SampleStats s;
  s.add_all({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, Variance) {
  SampleStats s;
  s.add_all({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(s.variance(), 4.571, 0.01);  // unbiased
}

TEST(Stats, QuantileInterpolation) {
  SampleStats s;
  s.add_all({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 20.0);
}

TEST(Stats, QuantileUnsortedInput) {
  SampleStats s;
  s.add_all({50.0, 10.0, 30.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 30.0);
}

TEST(Stats, HistogramBinning) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);  // clamps to first bin
  h.add(15.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
}

TEST(Format, Numbers) {
  EXPECT_EQ(fmt(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_factor(1.5), "x1.50");
  EXPECT_EQ(fmt_pct(0.25), "25.0%");
  EXPECT_EQ(fmt_mhz_from_ps(4000.0), "250 MHz");
}

TEST(Format, Verdict) {
  EXPECT_EQ(verdict(1.5, 1.0, 2.0), "PASS");
  EXPECT_EQ(verdict(2.3, 1.0, 2.0), "NEAR");   // within 20% of 2.0
  EXPECT_EQ(verdict(3.0, 1.0, 2.0), "FAIL");
  EXPECT_EQ(verdict(0.85, 1.0, 2.0), "NEAR");  // within 20% of 1.0
  EXPECT_EQ(verdict(0.5, 1.0, 2.0), "FAIL");
}


TEST(JsonChecked, SyntaxErrorsCarryCodeAndLocation) {
  const auto r = common::json::Value::parse_checked("{\"a\": }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kParse);
  EXPECT_EQ(r.status().loc().line, 1);
  EXPECT_GT(r.status().loc().column, 1);
}

TEST(JsonChecked, MultiLineLocationPointsAtOffendingByte) {
  const auto r = common::json::Value::parse_checked("{\n  \"a\": 1,\n  !\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kParse);
  EXPECT_EQ(r.status().loc().line, 3);
  EXPECT_EQ(r.status().loc().column, 3);
}

TEST(JsonChecked, DepthLimitRejectsDeepNestingWithoutOverflow) {
  // A 100k-deep "[[[[..." must come back as a coded rejection, not a
  // stack overflow (the serve frontier feeds attacker-controlled text).
  const std::string bomb(100000, '[');
  const auto r = common::json::Value::parse_checked(bomb);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kInvalidValue);

  std::string mixed;
  for (int i = 0; i < 100000; ++i) mixed += "{\"a\":[";
  const auto r2 = common::json::Value::parse_checked(mixed);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), common::ErrorCode::kInvalidValue);
}

TEST(JsonChecked, DepthLimitAdmitsDepthAtTheBound) {
  std::string at_limit;
  for (int i = 0; i < common::json::Value::kMaxParseDepth; ++i)
    at_limit += '[';
  std::string closed = at_limit;
  for (int i = 0; i < common::json::Value::kMaxParseDepth; ++i)
    closed += ']';
  EXPECT_TRUE(common::json::Value::parse_checked(closed).ok());
  const auto over =
      common::json::Value::parse_checked("[" + closed + "]");
  EXPECT_FALSE(over.ok());
}

TEST(JsonDump, RoundTripsCompactDocuments) {
  const std::string doc =
      "{\"a\":1,\"b\":[true,false,null],\"c\":{\"x\":\"s\\n\"},"
      "\"d\":2.5,\"e\":[]}";
  const auto v = common::json::Value::parse(doc);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->dump(), doc);
  // dump() output re-parses to an identical dump (fixed point).
  const auto v2 = common::json::Value::parse(v->dump());
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->dump(), doc);
}

TEST(JsonDump, PreservesKeyOrderAndNumberPrecision) {
  const std::string doc = "{\"z\":1,\"a\":0.1,\"m\":1e300}";
  const auto v = common::json::Value::parse(doc);
  ASSERT_TRUE(v.has_value());
  const auto again = common::json::Value::parse(v->dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->object[0].first, "z");
  EXPECT_EQ(again->object[1].first, "a");
  EXPECT_DOUBLE_EQ(again->object[1].second.num, 0.1);
  EXPECT_DOUBLE_EQ(again->object[2].second.num, 1e300);
}

// --- json::Writer --------------------------------------------------------

using common::json::Layout;
using common::json::Value;
using common::json::Writer;

/// {"e":{},"a":[],"n":{"k":[1,{"x":true}]}} in `layout`.
std::string nested_doc(Layout layout) {
  Writer w(layout);
  w.begin_object().key("e").begin_object().end_object();
  w.key("a").begin_array().end_array();
  w.key("n").begin_object().key("k").begin_array().value(1);
  w.begin_object().member("x", true).end_object();
  w.end_array().end_object().end_object();
  return w.take();
}

TEST(JsonWriter, CompactLayout) {
  EXPECT_EQ(nested_doc(Layout::kCompact),
            "{\"e\":{},\"a\":[],\"n\":{\"k\":[1,{\"x\":true}]}}");
  EXPECT_EQ(Writer().begin_object().end_object().str(), "{}");
  EXPECT_EQ(Writer().begin_array().end_array().str(), "[]");
}

TEST(JsonWriter, InlineLayout) {
  EXPECT_EQ(nested_doc(Layout::kInline),
            "{ \"e\": {}, \"a\": [], "
            "\"n\": { \"k\": [ 1, { \"x\": true } ] } }");
  EXPECT_EQ(Writer(Layout::kInline).begin_object().end_object().str(), "{}");
  EXPECT_EQ(Writer(Layout::kInline).begin_array().end_array().str(), "[]");
}

TEST(JsonWriter, PrettyLayout) {
  EXPECT_EQ(nested_doc(Layout::kPretty),
            "{\n"
            "  \"e\": {},\n"
            "  \"a\": [],\n"
            "  \"n\": {\n"
            "    \"k\": [\n"
            "      1,\n"
            "      {\n"
            "        \"x\": true\n"
            "      }\n"
            "    ]\n"
            "  }\n"
            "}");
  EXPECT_EQ(Writer(Layout::kPretty).begin_object().end_object().str(), "{}");
  EXPECT_EQ(Writer(Layout::kPretty).begin_array().end_array().str(), "[]");
}

TEST(JsonWriter, OnlyAPrettyParentHonorsAChildLayout) {
  Writer w(Layout::kPretty);
  w.begin_object().key("one_line").begin_object(Layout::kCompact);
  w.member("a", 1).key("b").begin_array(Layout::kPretty).value(2).end_array();
  w.end_object().key("anchor").begin_object(Layout::kInline);
  w.member("kind", "net").key("in").begin_object(Layout::kPretty);
  w.member("z", 0).end_object().end_object().end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"one_line\": {\"a\":1,\"b\":[2]},\n"
            "  \"anchor\": { \"kind\": \"net\", \"in\": { \"z\": 0 } }\n"
            "}");
  // A compact writer stays compact whatever its containers ask for.
  Writer c;
  c.begin_object(Layout::kPretty).key("x").begin_array(Layout::kInline);
  c.value(1).value(2).end_array().end_object();
  EXPECT_EQ(c.str(), "{\"x\":[1,2]}");
}

TEST(JsonWriter, EscapesControlBytesQuoteBackslashButNotDelOrUtf8) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  std::string want = "\"";
  for (int c = 0; c < 0x20; ++c) {
    if (c == '\n') want += "\\n";
    else if (c == '\r') want += "\\r";
    else if (c == '\t') want += "\\t";
    else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      want += buf;
    }
  }
  want += "\"";
  EXPECT_EQ(Writer().value(all).str(), want);
  EXPECT_EQ(Writer().value("a\"b\\c").str(), "\"a\\\"b\\\\c\"");
  // DEL, then UTF-8 for U+00E9, U+20AC and U+1F600.
  const std::string raw_bytes =
      "\x7f" "\xc3\xa9" "\xe2\x82\xac" "\xf0\x9f\x98\x80";
  EXPECT_EQ(Writer().value(raw_bytes).str(), "\"" + raw_bytes + "\"");
  EXPECT_EQ(common::json::escape(all + "\"\\" + raw_bytes),
            want.substr(1, want.size() - 2) + "\\\"\\\\" + raw_bytes);
  // Keys escape the same way, and every escape parses back to its byte.
  Writer k;
  k.begin_object().member(all, all).end_object();
  const auto v = Value::parse(k.str());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->object.at(0).first, all);
  EXPECT_EQ(v->object.at(0).second.str, all);
}

TEST(JsonWriter, IntegersAreExactUpToTwoToTheFiftyThird) {
  constexpr std::uint64_t k2p53 = std::uint64_t{1} << 53;
  Writer w;
  w.begin_array().value(std::uint64_t{0}).value(k2p53 - 1).value(k2p53);
  w.value(-42).value(std::numeric_limits<std::int64_t>::min()).end_array();
  EXPECT_EQ(w.str(), "[0,9007199254740991,9007199254740992,-42,"
                     "-9223372036854775808]");
  // Up to 2^53 a counter survives parse + dump unchanged.
  const auto v = Value::parse("[9007199254740991,9007199254740992]");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->dump(), "[9007199254740991,9007199254740992]");
}

TEST(JsonWriter, NonFiniteNumbersAreRecordedNotHidden) {
  Writer w;
  w.begin_object().member("ok", 1.5).member("bad", std::nan(""));
  w.member("worse", HUGE_VAL).end_object();
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.error(), "non-finite number nan at \"bad\"");  // the first one
  EXPECT_EQ(w.str(), "{\"ok\":1.5,\"bad\":nan,\"worse\":inf}");
  Writer root;
  root.value(-HUGE_VAL);
  EXPECT_EQ(root.error(), "non-finite number -inf");
  Writer fine;
  fine.value(0.1);
  EXPECT_TRUE(fine.ok());
  EXPECT_TRUE(fine.error().empty());
}

/// The Writer's number text against an independent reference, printf's
/// %.17g: random finite bit patterns (every exponent), decimal-looking
/// values around the fixed/exponent switch, and the edge values.
TEST(JsonWriter, NumbersMatchPrintfPrecision17) {
  const auto printf17 = [](double v) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf, static_cast<std::size_t>(n));
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1.5, 1e300, -1e300, 1e-300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 9007199254740992.0,
      9007199254740993.0, 123456789012345678.0, kInf, -kInf, kNan, -kNan};
  for (int e = -22; e <= 22; ++e) {
    const double p = std::pow(10.0, e);
    values.insert(values.end(), {p, -p, std::nextafter(p, 0.0),
                                 std::nextafter(p, kInf)});
  }
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    double v = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(v)) values.push_back(v);
    values.push_back(rng.normal(0.0, 1.0) *
                     std::pow(10.0, rng.uniform(-8.0, 20.0)));
  }
  std::size_t mismatches = 0;
  for (double v : values) {
    const std::string got = Writer().value(v).take();
    const std::string want = printf17(v);
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "Writer wrote " << got << ", %.17g gives " << want;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

/// A random DOM of bounded depth: every kind, keys and strings drawn from
/// bytes that exercise escaping.
Value random_value(Rng& rng, int depth) {  // NOLINT(misc-no-recursion)
  const auto text = [&] {
    std::string s;
    const std::size_t n = rng.uniform_index(6);
    for (std::size_t i = 0; i < n; ++i)
      s += static_cast<char>(rng.uniform_index(128));
    return s;
  };
  Value v;
  const std::size_t kind = rng.uniform_index(depth > 0 ? 6 : 4);
  switch (kind) {
    case 0: v.kind = Value::Kind::kNull; break;
    case 1:
      v.kind = Value::Kind::kBool;
      v.boolean = rng.bernoulli(0.5);
      break;
    case 2:
      v.kind = Value::Kind::kNumber;
      v.num = rng.bernoulli(0.5)
                  ? static_cast<double>(rng.uniform_index(1u << 30))
                  : rng.normal(0.0, 1e6);
      break;
    case 3:
      v.kind = Value::Kind::kString;
      v.str = text();
      break;
    case 4: {
      v.kind = Value::Kind::kArray;
      const std::size_t n = rng.uniform_index(4);
      for (std::size_t i = 0; i < n; ++i)
        v.array.push_back(random_value(rng, depth - 1));
      break;
    }
    default: {
      v.kind = Value::Kind::kObject;
      const std::size_t n = rng.uniform_index(4);
      for (std::size_t i = 0; i < n; ++i)
        v.object.emplace_back(text(), random_value(rng, depth - 1));
      break;
    }
  }
  return v;
}

TEST(JsonWriter, EveryLayoutParsesBackToTheCompactDump) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const Value dom = random_value(rng, 4);
    Writer compact;
    dom.write(compact);
    ASSERT_TRUE(compact.ok());
    EXPECT_EQ(compact.str(), dom.dump());
    for (Layout layout : {Layout::kCompact, Layout::kInline, Layout::kPretty}) {
      Writer w(layout);
      dom.write(w);
      const auto back = Value::parse(w.str());
      ASSERT_TRUE(back.has_value()) << w.str();
      EXPECT_EQ(back->dump(), compact.str()) << w.str();
    }
  }
}

}  // namespace
}  // namespace gap
