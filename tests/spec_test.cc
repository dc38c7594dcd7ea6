// The one spec grammar (util/spec.h) that addresses schedulers and
// workloads: a typo'd spec must throw a descriptive
// std::invalid_argument, never silently run a default.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/spec.h"

namespace cachesched {
namespace {

std::string error_of(const std::string& spec) {
  try {
    Spec::parse(spec, "scheduler");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

constexpr SpecKey kK[] = {{"k", "7"}};

/// Params of "s:k=<v>", or of "s" when `v` is absent.
SpecParams with(const char* v = nullptr) {
  return SpecParams(Spec::parse(v ? std::string("s:k=") + v : "s", "test"),
                    kK);
}

TEST(Spec, BareNameParses) {
  const Spec s = Spec::parse("pdf", "scheduler");
  EXPECT_EQ(s.name, "pdf");
  EXPECT_EQ(s.text, "pdf");
  EXPECT_TRUE(s.params.empty());
}

TEST(Spec, ParametersParseInSpecOrder) {
  const Spec s = Spec::parse("ws:victims=rand,steal=half,seed=7", "scheduler");
  EXPECT_EQ(s.name, "ws");
  ASSERT_EQ(s.params.size(), 3u);
  EXPECT_EQ(s.params[0], (std::pair<std::string, std::string>{"victims",
                                                              "rand"}));
  EXPECT_EQ(s.params[1], (std::pair<std::string, std::string>{"steal",
                                                              "half"}));
  EXPECT_EQ(s.params[2], (std::pair<std::string, std::string>{"seed", "7"}));
}

TEST(Spec, MalformedSpecsThrowDescriptively) {
  EXPECT_NE(error_of("ws:").find("no parameters after ':'"),
            std::string::npos);
  EXPECT_NE(error_of("ws:steal=half,").find("stray comma"),
            std::string::npos);
  EXPECT_NE(error_of("ws:steal=half,,seed=1").find("stray comma"),
            std::string::npos);
  EXPECT_NE(error_of("ws:steal").find("not key=value"), std::string::npos);
  EXPECT_NE(error_of("ws:=half").find("not key=value"), std::string::npos);
  EXPECT_NE(error_of("ws:steal=one,steal=half").find("duplicate key steal"),
            std::string::npos);
  EXPECT_NE(error_of("ws:").find("bad scheduler spec \"ws:\""),
            std::string::npos);
}

TEST(Spec, EmptyValueIsRepresentable) {
  // "key=" parses to an empty value; the typed getters reject it.
  const Spec s = Spec::parse("ws:seed=", "scheduler");
  ASSERT_EQ(s.params.size(), 1u);
  EXPECT_EQ(s.params[0].second, "");
  EXPECT_THROW(with("").get_u64("k", 0, 100), std::invalid_argument);
}

TEST(SpecParams, UnknownKeyThrowsListingAccepted) {
  const Spec s = Spec::parse("ws:steel=half", "scheduler");
  const SpecKey keys[] = {{"victims", "seq"}, {"steal", "one"}};
  try {
    SpecParams p(s, keys);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key \"steel\" for scheduler ws"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("victims steal"), std::string::npos) << msg;
  }
}

TEST(SpecParams, ParameterlessFamilyRejectsAnyKey) {
  try {
    SpecParams p(Spec::parse("pdf:x=1", "scheduler"), {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("takes no parameters"),
              std::string::npos);
  }
}

TEST(SpecParams, AbsentKeyReadsItsRowDefault) {
  EXPECT_EQ(with().get_u64("k", 0, 100), 7u);
  EXPECT_FALSE(with().has("k"));
  EXPECT_TRUE(with("3").has("k"));
  EXPECT_THROW(with().get_u64("no-row", 0, 100), std::logic_error);
}

TEST(SpecParams, U64ValidatesFormatAndRange) {
  const auto max = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(with("42").get_u64("k", 0, 100), 42u);
  EXPECT_THROW(with("-1").get_u64("k", 0, max), std::invalid_argument);
  EXPECT_THROW(with("+1").get_u64("k", 0, max), std::invalid_argument);
  EXPECT_THROW(with(" 1").get_u64("k", 0, max), std::invalid_argument);
  EXPECT_THROW(with(" -1").get_u64("k", 0, max), std::invalid_argument);
  EXPECT_THROW(with("4x").get_u64("k", 0, max), std::invalid_argument);
  EXPECT_THROW(with("99999999999999999999999").get_u64("k", 0, max),
               std::invalid_argument);
  EXPECT_THROW(with("101").get_u64("k", 0, 100), std::invalid_argument);
}

TEST(SpecParams, SizeSuffixMultipliesOnlyWhenAllowed) {
  const auto max = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(with("4K").get_u64("k", 0, max, true), 4096u);
  EXPECT_EQ(with("2m").get_u64("k", 0, max, true), 2u << 20);
  EXPECT_EQ(with("1G").get_u64("k", 0, max, true), 1u << 30);
  EXPECT_THROW(with("4K").get_u64("k", 0, max), std::invalid_argument);
  EXPECT_THROW(with("4KB").get_u64("k", 0, max, true), std::invalid_argument);
  EXPECT_THROW(with("17179869184G").get_u64("k", 0, max, true),
               std::invalid_argument);
}

TEST(SpecParams, FracValidatesFormatAndRange) {
  EXPECT_DOUBLE_EQ(with("0.5").get_frac("k", 0, 1), 0.5);
  EXPECT_DOUBLE_EQ(with().get_frac("k", 0, 10), 7.0);
  EXPECT_THROW(with("lots").get_frac("k", 0, 1), std::invalid_argument);
  EXPECT_THROW(with("inf").get_frac("k", 0, 1), std::invalid_argument);
  EXPECT_THROW(with("nan").get_frac("k", 0, 1), std::invalid_argument);
  EXPECT_THROW(with("1.5").get_frac("k", 0, 1), std::invalid_argument);
}

TEST(SpecParams, ChoiceValidatesAgainstKnownValues) {
  EXPECT_EQ(with("half").get_choice("k", {"one", "half"}), 1u);
  const SpecKey steal[] = {{"steal", "half"}};
  EXPECT_EQ(SpecParams(Spec::parse("ws", "scheduler"), steal)
                .get_choice("steal", {"one", "half"}),
            1u);
  try {
    with("quarter").get_choice("k", {"one", "half"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("k=quarter"), std::string::npos) << msg;
    EXPECT_NE(msg.find("one half"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace cachesched
