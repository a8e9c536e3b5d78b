// Tests for the Status/Result error model: code/message plumbing, the
// named constructors the resilience stack leans on (Timeout,
// ResourceExhausted), string formatting, and Result round-trips through
// the QMQO_* macros.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace qmqo {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_TRUE(status.message().empty());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, NamedConstructorsCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      {Status::InvalidArgument("bad"), StatusCode::kInvalidArgument},
      {Status::NotFound("missing"), StatusCode::kNotFound},
      {Status::FailedPrecondition("early"), StatusCode::kFailedPrecondition},
      {Status::ResourceExhausted("full"), StatusCode::kResourceExhausted},
      {Status::Internal("broken"), StatusCode::kInternal},
      {Status::Unimplemented("todo"), StatusCode::kUnimplemented},
      {Status::Timeout("late"), StatusCode::kTimeout},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_FALSE(c.status.message().empty());
  }
}

TEST(StatusTest, TimeoutForDeadlineExpiry) {
  Status status = Status::Timeout("attempt exceeded 50 ms budget");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_EQ(status.message(), "attempt exceeded 50 ms budget");
  EXPECT_EQ(status.ToString(), "Timeout: attempt exceeded 50 ms budget");
}

TEST(StatusTest, ResourceExhaustedForBudgetExhaustion) {
  Status status = Status::ResourceExhausted("all reads dropped");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.ToString(), "ResourceExhausted: all reads dropped");
}

TEST(StatusTest, CodeToStringIsStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kTimeout), "Timeout");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Timeout("x"), Status::Timeout("x"));
  EXPECT_FALSE(Status::Timeout("x") == Status::Timeout("y"));
  EXPECT_FALSE(Status::Timeout("x") == Status::Internal("x"));
  EXPECT_EQ(Status(), Status::OK());
}

TEST(StatusTest, CopiesOwnTheirMessageAndMovesLeaveOk) {
  Status original = Status::Internal("worker crashed");
  Status copy = original;
  EXPECT_EQ(copy, original);
  EXPECT_NE(&copy.message(), &original.message());
  Status assigned;
  assigned = copy;
  EXPECT_EQ(assigned.ToString(), "Internal: worker crashed");
  Status moved = std::move(copy);
  EXPECT_EQ(moved, original);
  // A code without a message, and OK, read back an empty message.
  EXPECT_EQ(Status(StatusCode::kTimeout, "").message(), "");
  EXPECT_EQ(Status::OK().message(), "");
  // Code plus one message pointer: settled service outcomes hold one each.
  EXPECT_LE(sizeof(Status), 2 * sizeof(void*));
}

TEST(ResultTest, ValueRoundTrip) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.status().ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, ErrorRoundTrip) {
  Result<int> result = Status::Timeout("too slow");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(result.status().message(), "too slow");
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(*owned, 7);
}

TEST(ResultTest, ArrowOperatorReachesMembers) {
  Result<std::string> result = std::string("resilient");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 9u);
}

namespace macros {

Status FailWhen(bool fail) {
  if (fail) return Status::ResourceExhausted("budget spent");
  return Status::OK();
}

Status Propagates(bool fail) {
  QMQO_RETURN_IF_ERROR(FailWhen(fail));
  return Status::OK();
}

Result<int> Half(int value) {
  if (value % 2 != 0) return Status::InvalidArgument("odd");
  return value / 2;
}

Result<int> Quarter(int value) {
  int half;
  QMQO_ASSIGN_OR_RETURN(half, Half(value));
  QMQO_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

}  // namespace macros

TEST(ResultTest, ReturnIfErrorPropagatesAndPassesThrough) {
  EXPECT_TRUE(macros::Propagates(false).ok());
  Status failed = macros::Propagates(true);
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(failed.message(), "budget spent");
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = macros::Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  // First division succeeds (8 -> 4 is fine for 10 -> 5), second fails.
  Result<int> odd_inner = macros::Quarter(10);
  EXPECT_FALSE(odd_inner.ok());
  EXPECT_EQ(odd_inner.status().code(), StatusCode::kInvalidArgument);
  Result<int> odd_outer = macros::Quarter(7);
  EXPECT_FALSE(odd_outer.ok());
}

}  // namespace
}  // namespace qmqo
