#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace cachesched {
namespace {

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixSeedSensitivity) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_EQ(same, 0);
}

TEST(Rng, Mix64IsPure) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

TEST(Rng, XoshiroBelowBoundIsUniformish) {
  Xoshiro256 rng(7);
  constexpr uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.next_below(kBound)];
  for (uint64_t v = 0; v < kBound; ++v) {
    EXPECT_NEAR(counts[v], kN / kBound, kN / kBound * 0.15) << "value " << v;
  }
}

TEST(Rng, XoshiroDoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

CliArgs make_args(std::vector<std::string> argv) {
  std::vector<char*> ptrs;
  for (auto& s : argv) ptrs.push_back(s.data());
  return CliArgs(static_cast<int>(ptrs.size()), ptrs.data());
}

/// check_unused() once the getters have run: its exit code and stderr.
std::pair<int, std::string> check(const CliArgs& args) {
  ::testing::internal::CaptureStderr();
  const int rc = args.check_unused();
  return {rc, ::testing::internal::GetCapturedStderr()};
}

TEST(Cli, KeyValueForms) {
  auto args = make_args({"prog", "--a=1", "--b", "2", "--flag"});
  EXPECT_EQ(args.get_int("a", 0), 1);
  EXPECT_EQ(args.get_int("b", 0), 2);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

// A malformed value yields the getter's default, and check_unused() names
// the flag and the value and returns 2. The values are ones a lenient
// parser misreads: 4x and 4.5 truncate to 4, -1 wraps in an unsigned
// field, 2^32 + 8 wraps to 8 in an int, "flase" reads as false, and an
// output path in a missing directory fails only after the run.
TEST(Cli, MalformedValuesAreUsageErrors) {
  const auto expect_bad = [](const std::string& flag, const std::string& value,
                             auto returns_expected) {
    const CliArgs args = make_args({"prog", "--" + flag + "=" + value});
    EXPECT_TRUE(returns_expected(args)) << flag << "=" << value;
    const auto [rc, err] = check(args);
    EXPECT_EQ(rc, 2) << flag << "=" << value;
    EXPECT_NE(err.find("bad value for --" + flag + ": \"" + value + "\""),
              std::string::npos)
        << err;
  };
  for (const std::string v : {"4x", "4.5", "-1", "abc", "", "+4", " 4", "0x10",
                              "true", "4294967304", "99999999999999999999"}) {
    expect_bad("cores", v,
               [](const CliArgs& a) { return a.get_int("cores", 8) == 8; });
  }
  expect_bad("task-ws", "-1", [](const CliArgs& a) {
    return a.get_int<uint64_t>("task-ws", 0) == 0;
  });
  for (const std::string v :
       {"abc", "0.5x", "-0.25", "-0", "inf", "nan", "", "1e999"}) {
    expect_bad("scale", v, [](const CliArgs& a) {
      return a.get_double("scale", 0.125) == 0.125;
    });
  }
  for (const std::string v : {"flase", "TRUE", "2", ""}) {
    expect_bad("seq", v,
               [](const CliArgs& a) { return a.get_bool("seq", true); });
  }
  for (const std::string v : {"1,2,x", "1,4294967304", ","}) {
    expect_bad("cores", v, [](const CliArgs& a) {
      return a.get_int_list<int>("cores", {16}) == std::vector<int>{16};
    });
  }
  expect_bad("scales", "0.5,-1", [](const CliArgs& a) {
    return a.get_double_list("scales", {0.125}) == std::vector<double>{0.125};
  });
  expect_bad("csv", "/nonexistent/x.csv", [](const CliArgs& a) {
    return a.get_output("csv", "") == "/nonexistent/x.csv";
  });
  // The --key value form takes "-5" as the value and rejects it too.
  const CliArgs kv = make_args({"prog", "--l2-hit", "-5"});
  EXPECT_EQ(kv.get_int("l2-hit", 19), 19);
  EXPECT_EQ(check(kv).first, 2);
}

TEST(Cli, WellFormedValuesParse) {
  auto args = make_args({"prog", "--ws=4294967304", "--top=2147483647",
                         "--zero=0", "--a=0.03125", "--b=1e-3", "--csv=x.csv",
                         "--json=" + ::testing::TempDir()});
  EXPECT_EQ(args.get_int<uint64_t>("ws", 0), 4294967304u);  // fits 64 bits
  EXPECT_EQ(args.get_int("top", 0), 2147483647);
  EXPECT_EQ(args.get_int<uint32_t>("zero", 5), 0u);
  EXPECT_EQ(args.get_double("a", 0), 0.03125);
  EXPECT_EQ(args.get_double("b", 0), 1e-3);
  EXPECT_EQ(args.get_output("csv", ""), "x.csv");
  EXPECT_EQ(args.get_output("json", ""), ::testing::TempDir());
  EXPECT_EQ(args.get_output("out", ""), "");
  EXPECT_EQ(args.check_unused(), 0);
  for (const std::string w : {"1", "true", "yes", "on"}) {
    EXPECT_TRUE(make_args({"prog", "--q=" + w}).get_bool("q", false)) << w;
  }
  for (const std::string w : {"0", "false", "no", "off"}) {
    EXPECT_FALSE(make_args({"prog", "--q=" + w}).get_bool("q", true)) << w;
  }
}

TEST(Cli, IntList) {
  auto args = make_args({"prog", "--cores=1,2,4,8"});
  EXPECT_EQ(args.get_int_list("cores", {}),
            (std::vector<int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(args.get_int_list<int>("cores", {}),
            (std::vector<int>{1, 2, 4, 8}));
  auto def = make_args({"prog"});
  EXPECT_EQ(def.get_int_list("cores", {16}), (std::vector<int64_t>{16}));
}

TEST(Cli, UnusedDetection) {
  auto args = make_args({"prog", "--used=1", "--typo=2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, RejectsPositional) {
  // Recorded, not thrown, so every binary reports it through
  // check_unused() with exit 2 instead of dying on an exception.
  auto args = make_args({"prog", "oops", "--a=1"});
  EXPECT_EQ(args.get_int("a", 0), 1);
  const auto [rc, err] = check(args);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unexpected positional argument: oops"),
            std::string::npos)
      << err;
}

TEST(Cli, QueriedRecordsFlagVocabulary) {
  auto args = make_args({"prog", "--a=1"});
  args.get_int("a", 0);
  args.get("beta", "");
  args.has("gamma");
  auto q = args.queried();
  std::sort(q.begin(), q.end());
  EXPECT_EQ(q, (std::vector<std::string>{"a", "beta", "gamma"}));
}

TEST(Cli, NearestFlagSuggestsCloseTypos) {
  const std::vector<std::string> flags = {"scale",  "scales", "scheds",
                                          "cores",  "store",  "resume",
                                          "shard",  "csv",    "json"};
  EXPECT_EQ(nearest_flag("shcale", flags), "scale");   // transposition
  EXPECT_EQ(nearest_flag("scal", flags), "scale");     // deletion
  EXPECT_EQ(nearest_flag("coers", flags), "cores");
  EXPECT_EQ(nearest_flag("resumee", flags), "resume");
  EXPECT_EQ(nearest_flag("stroe", flags), "store");
}

TEST(Cli, NearestFlagRejectsDistantNames) {
  const std::vector<std::string> flags = {"scale", "cores", "json"};
  EXPECT_EQ(nearest_flag("threads", flags), "");
  EXPECT_EQ(nearest_flag("x", flags), "");  // distance >= length of typo
  EXPECT_EQ(nearest_flag("", flags), "");
  EXPECT_EQ(nearest_flag("scale", {}), "");
}

TEST(Cli, NearestFlagTiesAreDeterministic) {
  // "ab" is distance 1 from both "aa" and "ac"; first candidate wins.
  EXPECT_EQ(nearest_flag("ab", {"aa", "ac"}), "aa");
  EXPECT_EQ(nearest_flag("ab", {"ac", "aa"}), "ac");
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\nb,22.5\n");
}

TEST(Table, ArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(uint64_t{42}), "42");
}

TEST(Table, EmitThrowsWhenCsvCannotBeWritten) {
  Table t({"a"});
  t.add_row({"1"});
  const std::string path = ::testing::TempDir() + "no-such-dir/x.csv";
  EXPECT_THROW(t.emit(path), std::runtime_error);
}

}  // namespace
}  // namespace cachesched
