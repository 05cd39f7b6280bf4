/// gap_e2e: the end-to-end benchmark driver (see ../README.md).
///
///   gap_e2e --workload flow_sweep|serve_eco|serve_report --seed N
///           --seconds S --trace 0|1 [--max-ops N] [--expected FILE]
///           [--out-dir DIR] [--dump-stream N] [--write-expected FILE]
///
/// Prints notes on stderr and, as the last stdout line, one JSON object
/// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
/// --trace 0, the per-layer metrics with --trace 1. Exit code 2 on a
/// usage error, with no result printed.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "gap_e2e: " << why
            << "\nusage: gap_e2e --workload flow_sweep|serve_eco|serve_report"
               " --seed N --seconds S --trace 0|1 [--max-ops N]"
               " [--expected FILE] [--out-dir DIR] [--dump-stream N]"
               " [--write-expected FILE]\n";
  return 2;
}

bool parse_uint(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && parse_uint(value, n)) {
      args.seed = n;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 120.0)
        return usage("--seconds must be in (0, 120]");
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else if (flag == "--max-ops" && parse_uint(value, n)) {
      args.max_ops = n;
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--dump-stream" && parse_uint(value, n)) {
      args.dump_stream = n;
    } else if (flag == "--write-expected") {
      args.write_expected = value;
    } else {
      return usage("bad flag or value: " + flag + " " + value);
    }
  }

  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
  }
  perfbench::Outcome out;
  if (args.workload == "flow_sweep") {
    out = perfbench::run_flow_sweep(args);
  } else if (args.workload == "serve_eco") {
    out = perfbench::run_serve(args, /*eco=*/true);
  } else if (args.workload == "serve_report") {
    out = perfbench::run_serve(args, /*eco=*/false);
  } else {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (args.dump_stream != 0 || !args.write_expected.empty())
    return out.failed == 0 ? 0 : 1;
  std::cout << perfbench::result_json(out, args.trace) << std::endl;
  return 0;
}
