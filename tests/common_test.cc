// Unit tests for the common substrate: Status/Result, Rng, string
// utilities. The ThreadPool tests live in deadline_test.cc, which the TSan
// lane runs.

#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace taste {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Invalid("bad alpha");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad alpha");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad alpha");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::Invalid("not positive");
  return x;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = ParsePositive(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  Result<int> err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ValueOr(42), 42);
  EXPECT_EQ(ok.ValueOr(42), 7);
}

Status UseAssignOrReturn(int x, int* out) {
  TASTE_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseAssignOrReturn(-5, &out).ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(13);
    EXPECT_LT(v, 13u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, WeightedChoiceRespectsWeights) {
  Rng rng(23);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.WeightedChoice(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.4);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(31);
  Rng f1 = parent.Fork(1);
  Rng f2 = parent.Fork(1);  // parent state advanced -> different stream
  EXPECT_NE(f1.NextU64(), f2.NextU64());
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("AbC_dE-9"), "abc_de-9");
}

TEST(StringUtilTest, SplitAnyDropsEmpty) {
  auto parts = SplitAny("a_b--c", "_-");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitEmptyString) {
  EXPECT_TRUE(SplitAny("", ",").empty());
  EXPECT_TRUE(SplitAny(",,,", ",").empty());
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Strip) {
  EXPECT_EQ(Strip("  hi there\t\n"), "hi there");
  EXPECT_EQ(Strip("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("customer_id", "customer"));
  EXPECT_FALSE(StartsWith("id", "customer"));
  EXPECT_TRUE(EndsWith("customer_id", "_id"));
  EXPECT_FALSE(EndsWith("id", "_idx"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "_"), "a_b_c");
  EXPECT_EQ(ReplaceAll("aaaa", "aa", "b"), "bb");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "n", 10), "n=10");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  double t0 = sw.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace taste
