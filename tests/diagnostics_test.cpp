#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/check.hpp"
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
  EXPECT_EQ(s.to_diagnostic().format(),
            "error[parse] liberty:12:7: expected ';'");
}

TEST(StatusTest, RenderingWithoutLocationOrWhere) {
  const Status s = Status::error(ErrorCode::kIo, "cannot read 'x'");
  EXPECT_EQ(s.to_string(), "error[io]: cannot read 'x'");
  const Diagnostic d = s.to_diagnostic(Severity::kWarning);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.format(), "warning[io]: cannot read 'x'");
  Diagnostic note;
  note.severity = Severity::kNote;
  note.code = ErrorCode::kOk;
  note.message = "fyi";
  EXPECT_EQ(note.format(), "note[ok]: fyi");
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

}  // namespace
}  // namespace gap::common
