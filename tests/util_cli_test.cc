#include "util/cli.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace pabr::cli {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return v;
}

TEST(CliTest, ParsesEqualsForm) {
  Parser p("t", "test");
  double load = 0.0;
  int n = 0;
  std::string s;
  p.add_double("load", &load, "");
  p.add_int("n", &n, "");
  p.add_string("name", &s, "");
  auto args = argv_of({"--load=123.5", "--n=-7", "--name=ring"});
  ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(load, 123.5);
  EXPECT_EQ(n, -7);
  EXPECT_EQ(s, "ring");
}

TEST(CliTest, ParsesSpaceSeparatedForm) {
  Parser p("t", "test");
  double load = 0.0;
  p.add_double("load", &load, "");
  auto args = argv_of({"--load", "60"});
  ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(load, 60.0);
}

TEST(CliTest, BareBooleanSetsTrue) {
  Parser p("t", "test");
  bool full = false;
  p.add_bool("full", &full, "");
  auto args = argv_of({"--full"});
  ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_TRUE(full);
}

TEST(CliTest, BooleanAcceptsExplicitValues) {
  Parser p("t", "test");
  bool a = false;
  bool b = true;
  p.add_bool("a", &a, "");
  p.add_bool("b", &b, "");
  auto args = argv_of({"--a=true", "--b=false"});
  ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
}

TEST(CliTest, UnknownFlagFails) {
  Parser p("t", "test");
  auto args = argv_of({"--nope=1"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, BadNumberFails) {
  Parser p("t", "test");
  int n = 0;
  p.add_int("n", &n, "");
  auto args = argv_of({"--n=twelve"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, IntBelowMinimumFails) {
  Parser p("t", "test");
  int n = 5;
  p.add_int("n", &n, "", 0);
  auto args = argv_of({"--n", "-3"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(n, 5);  // the target is left untouched
}

TEST(CliTest, IntAtMinimumParses) {
  Parser p("t", "test");
  int n = 5;
  p.add_int("n", &n, "", 0);
  auto args = argv_of({"--n=0"});
  ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(n, 0);
}

TEST(CliTest, DoubleBelowMinimumFails) {
  Parser p("t", "test");
  double x = 5.0;
  p.add_double("x", &x, "", 0.0);
  auto args = argv_of({"--x", "-0.5"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(x, 5.0);  // the target is left untouched
}

TEST(CliTest, DoubleAboveMaximumFails) {
  Parser p("t", "test");
  double x = 0.5;
  p.add_double("x", &x, "", 0.0, 1.0);
  auto args = argv_of({"--x=1.01"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(x, 0.5);
}

TEST(CliTest, DoubleAtBoundsParses) {
  Parser p("t", "test");
  double lo = 0.5;
  double hi = 0.5;
  p.add_double("lo", &lo, "", 0.0, 1.0);
  p.add_double("hi", &hi, "", 0.0, 1.0);
  auto args = argv_of({"--lo=0", "--hi=1"});
  ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST(CliTest, DoubleNanFails) {
  // NaN compares false against any bound, so it must be rejected
  // explicitly — bounded or not.
  for (const bool bounded : {false, true}) {
    Parser p("t", "test");
    double x = 2.0;
    if (bounded) {
      p.add_double("x", &x, "", 0.0, 10.0);
    } else {
      p.add_double("x", &x, "");
    }
    auto args = argv_of({"--x=nan"});
    EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()))
        << "bounded=" << bounded;
    EXPECT_DOUBLE_EQ(x, 2.0);
  }
}

TEST(CliTest, MissingValueFails) {
  Parser p("t", "test");
  double x = 0.0;
  p.add_double("x", &x, "");
  auto args = argv_of({"--x"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, HelpReturnsFalseAndRendersFlags) {
  Parser p("t", "my tool");
  double x = 1.5;
  p.add_double("xray", &x, "an x value");
  auto args = argv_of({"--help"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
  const std::string usage = p.usage();
  EXPECT_NE(usage.find("xray"), std::string::npos);
  EXPECT_NE(usage.find("an x value"), std::string::npos);
  EXPECT_NE(usage.find("1.5"), std::string::npos);  // default
}

TEST(CliTest, PositionalArgumentsCollected) {
  Parser p("t", "test");
  bool v = false;
  p.add_bool("v", &v, "");
  auto args = argv_of({"input.csv", "--v", "more"});
  ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data()));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.csv");
  EXPECT_EQ(p.positional()[1], "more");
}

TEST(CliTest, RepeatedFlagEqualsFormFails) {
  Parser p("t", "test");
  double load = 0.0;
  p.add_double("load", &load, "");
  auto args = argv_of({"--load=60", "--load=80"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, RepeatedFlagSplitFormFails) {
  Parser p("t", "test");
  int n = 0;
  p.add_int("n", &n, "");
  auto args = argv_of({"--n", "1", "--n", "2"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, RepeatedFlagAcrossFormsFails) {
  // The `--name=value` and split `--name value` spellings name the same
  // flag; mixing them is still a repeat.
  Parser p("t", "test");
  double x = 0.0;
  p.add_double("x", &x, "");
  auto args = argv_of({"--x=1.5", "--x", "2.5"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, RepeatedBareBooleanFails) {
  Parser p("t", "test");
  bool full = false;
  p.add_bool("full", &full, "");
  auto args = argv_of({"--full", "--full"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, RepeatedUnknownFlagStillReportsUnknown) {
  // Unknown-flag detection has priority over repeat detection.
  Parser p("t", "test");
  auto args = argv_of({"--nope=1", "--nope=2"});
  EXPECT_FALSE(p.parse(static_cast<int>(args.size()), args.data()));
}

TEST(CliTest, DistinctFlagsAllAssignOnce) {
  Parser p("t", "test");
  double load = 0.0;
  bool full = false;
  std::string out;
  p.add_double("load", &load, "");
  p.add_bool("full", &full, "");
  p.add_string("out", &out, "");
  auto args = argv_of({"--load", "88.5", "--full", "--out=r.csv"});
  ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(load, 88.5);
  EXPECT_TRUE(full);
  EXPECT_EQ(out, "r.csv");
}

TEST(CliTest, DuplicateFlagRegistrationThrows) {
  Parser p("t", "test");
  int a = 0;
  int b = 0;
  p.add_int("n", &a, "");
  EXPECT_THROW(p.add_int("n", &b, ""), InvariantError);
}

TEST(CliTest, Uint64RoundTrip) {
  Parser p("t", "test");
  unsigned long long seed = 0;
  p.add_uint64("seed", &seed, "");
  auto args = argv_of({"--seed=18446744073709551615"});
  ASSERT_TRUE(p.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(seed, 18446744073709551615ULL);
}

}  // namespace
}  // namespace pabr::cli
