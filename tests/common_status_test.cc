#include "src/common/status.h"

#include <memory>

#include "gtest/gtest.h"
#include "src/common/result.h"

namespace scwsc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Infeasible("x").IsInfeasible());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
}

TEST(StatusTest, UnavailableIsNotAnInterruption) {
  // Unavailable (a listening socket that cannot be bound) is an error, not
  // a cooperative interruption carrying a partial result.
  Status st = Status::Unavailable("bind: Address already in use");
  EXPECT_FALSE(st.IsInterruption());
  EXPECT_EQ(StatusCodeToString(st.code()), "Unavailable");
  EXPECT_EQ(st.ToString(), "Unavailable: bind: Address already in use");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status st = Status::Infeasible("no qualified set");
  EXPECT_EQ(st.ToString(), "Infeasible: no qualified set");
  EXPECT_EQ(st.message(), "no qualified set");
}

TEST(StatusTest, CopiesShareRepresentation) {
  Status a = Status::NotFound("f");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_TRUE(b.IsNotFound());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInfeasible), "Infeasible");
  EXPECT_EQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnNotOk(int x) {
  SCWSC_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(1).ok());
  EXPECT_TRUE(UsesReturnNotOk(-1).IsInvalidArgument());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r = 7;
  EXPECT_EQ(r.ValueOr(-1), 7);
}

TEST(ResultTest, OkStatusIsRejected) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  SCWSC_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnChains) {
  auto r = Quarter(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());  // 6/2=3 is odd
  EXPECT_TRUE(Quarter(7).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, DereferencingAnRvalueMovesAMoveOnlyValueOut) {
  // Compiles only if *std::move(r) yields T&&: a unique_ptr cannot copy.
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  std::unique_ptr<int> taken = *std::move(r);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(*taken, 7);
}

TEST(ResultTest, DereferencingAnRvalueLeavesNoCopyBehind) {
  // A copy would leave the Result holding a second reference.
  Result<std::shared_ptr<int>> r = std::make_shared<int>(9);
  std::shared_ptr<int> moved = *std::move(r);
  EXPECT_EQ(moved.use_count(), 1);
  EXPECT_EQ(*moved, 9);
}

}  // namespace
}  // namespace scwsc
