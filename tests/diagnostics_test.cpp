#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/check.hpp"
#include "common/diagnostics.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"

namespace gap::common {
namespace {

TEST(StatusTest, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeMessageAndLocation) {
  const Status s = Status::error(ErrorCode::kParse, "expected ';'",
                                 SourceLoc{12, 7}, "liberty");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kParse);
  EXPECT_EQ(s.message(), "expected ';'");
  EXPECT_EQ(s.loc().line, 12);
  EXPECT_EQ(s.loc().column, 7);
  EXPECT_EQ(s.where(), "liberty");
  EXPECT_EQ(s.to_string(), "error[parse] liberty:12:7: expected ';'");
}

TEST(StatusTest, RenderingWithoutLocationOrWhere) {
  const Status s = Status::error(ErrorCode::kIo, "cannot read 'x'");
  EXPECT_EQ(s.to_string(), "error[io]: cannot read 'x'");
  const Diagnostic d = s.to_diagnostic(Severity::kWarning);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.format(), "warning[io]: cannot read 'x'");
}

TEST(StatusTest, EveryCodeHasAName) {
  const std::set<std::string> names = {
      to_string(ErrorCode::kOk),        to_string(ErrorCode::kUsage),
      to_string(ErrorCode::kMissingValue),
      to_string(ErrorCode::kUnknownName), to_string(ErrorCode::kParse),
      to_string(ErrorCode::kInvalidValue), to_string(ErrorCode::kDuplicate),
      to_string(ErrorCode::kStructural), to_string(ErrorCode::kContract),
      to_string(ErrorCode::kIo),        to_string(ErrorCode::kInternal)};
  EXPECT_EQ(names.size(), 11u);  // all distinct, none empty
  for (const std::string& n : names) EXPECT_FALSE(n.empty());
}

TEST(ResultTest, HoldsValueOrStatus) {
  const Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(*good, 7);
  EXPECT_TRUE(good.status().ok());

  const Result<int> bad(Status::error(ErrorCode::kParse, "nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kParse);
}

TEST(ResultTest, MoveOutOfResult) {
  Result<std::string> r(std::string("payload"));
  const std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

TEST(ResultDeathTest, ValueOnFailedResultIsContractViolation) {
  const Result<int> bad(Status::error(ErrorCode::kParse, "nope"));
  EXPECT_DEATH((void)bad.value(), "Precondition");
}

TEST(DiagnosticEngineTest, CollectsAndCounts) {
  DiagnosticEngine engine;
  EXPECT_FALSE(engine.has_errors());
  engine.report(Severity::kNote, ErrorCode::kOk, "fyi");
  engine.report(Severity::kWarning, ErrorCode::kInvalidValue, "odd value",
                SourceLoc{3, 1}, "liberty");
  engine.report(Status::error(ErrorCode::kParse, "bad token", SourceLoc{9, 2},
                              "verilog"));
  EXPECT_EQ(engine.size(), 3u);
  EXPECT_EQ(engine.count_at_least(Severity::kWarning), 2u);
  EXPECT_EQ(engine.count_at_least(Severity::kError), 1u);
  EXPECT_TRUE(engine.has_errors());
  const std::vector<Diagnostic> all = engine.diagnostics();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_NE(all[0].format().find("note[ok]: fyi"), std::string::npos);
  EXPECT_NE(all[2].format().find("error[parse] verilog:9:2: bad token"),
            std::string::npos);
  engine.clear();
  EXPECT_EQ(engine.size(), 0u);
}

TEST(DiagnosticEngineTest, OkStatusIsNotRecorded) {
  DiagnosticEngine engine;
  engine.report(Status{});
  EXPECT_EQ(engine.size(), 0u);
}

TEST(DiagnosticEngineTest, ThreadSafeUnderParallelFor) {
  DiagnosticEngine engine;
  constexpr std::size_t kReports = 2000;
  parallel_for(4, kReports, [&](std::size_t i) {
    engine.report(i % 2 ? Severity::kWarning : Severity::kError,
                  ErrorCode::kStructural, "r" + std::to_string(i),
                  SourceLoc{static_cast<int>(i) + 1, 1}, "par");
  });
  EXPECT_EQ(engine.size(), kReports);
  EXPECT_EQ(engine.count_at_least(Severity::kError), kReports / 2);
  // Every report arrived intact (arrival order is unspecified).
  std::set<std::string> seen;
  for (const Diagnostic& d : engine.diagnostics()) seen.insert(d.message);
  EXPECT_EQ(seen.size(), kReports);
}

TEST(ContractCaptureTest, CaptureTurnsAbortIntoException) {
  const ScopedContractCapture guard;
  EXPECT_TRUE(contract_capture_active());
  bool caught = false;
  try {
    GAP_EXPECTS(1 + 1 == 3);
  } catch (const ContractViolation& v) {
    caught = true;
    EXPECT_NE(std::string(v.what()).find("Precondition"), std::string::npos);
    EXPECT_NE(std::string(v.what()).find("1 + 1 == 3"), std::string::npos);
  }
  EXPECT_TRUE(caught);
}

TEST(ContractCaptureTest, NestingKeepsCaptureActive) {
  const ScopedContractCapture outer;
  {
    const ScopedContractCapture inner;
    EXPECT_TRUE(contract_capture_active());
  }
  // Inner scope ended; the outer capture must still be active.
  EXPECT_TRUE(contract_capture_active());
  EXPECT_THROW(GAP_ENSURES(false), ContractViolation);
}

TEST(ContractCaptureTest, CaptureIsThreadLocal) {
  const ScopedContractCapture guard;
  bool other_thread_active = true;
  parallel_for(2, 2, [&](std::size_t i) {
    if (i == 1) other_thread_active = contract_capture_active();
  });
  // Lane 0 runs on the calling thread (capture active); lane 1 must not
  // inherit the capture.
  EXPECT_FALSE(other_thread_active);
}

TEST(ContractCaptureDeathTest, OutsideCaptureContractsStillAbort) {
  EXPECT_FALSE(contract_capture_active());
  EXPECT_DEATH(GAP_EXPECTS(false), "Precondition");
}


TEST(DiagnosticCapTest, UnboundedByDefault) {
  DiagnosticEngine de;
  EXPECT_EQ(de.capacity(), 0u);
  for (int i = 0; i < 1000; ++i)
    de.report(Severity::kWarning, ErrorCode::kLint, "w");
  EXPECT_EQ(de.size(), 1000u);
  EXPECT_EQ(de.dropped(), 0u);
}

TEST(DiagnosticCapTest, CapDropsAndCounts) {
  DiagnosticEngine de;
  de.set_capacity(3);
  for (int i = 0; i < 10; ++i)
    de.report(Severity::kError, ErrorCode::kParse, "e" + std::to_string(i));
  EXPECT_EQ(de.size(), 3u);
  EXPECT_EQ(de.dropped(), 7u);
  // The retained entries are the oldest ones (arrival order).
  const auto all = de.diagnostics();
  EXPECT_EQ(all.front().message, "e0");
  EXPECT_EQ(all.back().message, "e2");
  // Counts still reflect only what is retained; the drop counter is the
  // caller's signal that history was truncated.
  EXPECT_TRUE(de.has_errors());
}

TEST(DiagnosticCapTest, ShrinkingDiscardsNewestSurplus) {
  DiagnosticEngine de;
  for (int i = 0; i < 5; ++i)
    de.report(Severity::kNote, ErrorCode::kOk, "n" + std::to_string(i));
  de.set_capacity(2);
  EXPECT_EQ(de.size(), 2u);
  EXPECT_EQ(de.dropped(), 3u);
  EXPECT_EQ(de.diagnostics().back().message, "n1");
}

TEST(DiagnosticCapTest, ClearResetsDropCounter) {
  DiagnosticEngine de;
  de.set_capacity(1);
  de.report(Severity::kError, ErrorCode::kIo, "a");
  de.report(Severity::kError, ErrorCode::kIo, "b");
  EXPECT_EQ(de.dropped(), 1u);
  de.clear();
  EXPECT_EQ(de.dropped(), 0u);
  EXPECT_EQ(de.size(), 0u);
  // Capacity survives clear(); retention is a property of the engine.
  de.report(Severity::kError, ErrorCode::kIo, "c");
  de.report(Severity::kError, ErrorCode::kIo, "d");
  EXPECT_EQ(de.size(), 1u);
  EXPECT_EQ(de.dropped(), 1u);
}

TEST(DiagnosticCapTest, ConcurrentReportingStaysBounded) {
  DiagnosticEngine de;
  de.set_capacity(16);
  parallel_for(4, 400, [&](std::size_t i) {
    de.report(Severity::kWarning, ErrorCode::kLint,
              "w" + std::to_string(i));
  });
  EXPECT_EQ(de.size(), 16u);
  EXPECT_EQ(de.dropped(), 384u);
}

}  // namespace
}  // namespace gap::common
