/** @file Unit tests for strings, alignment helpers and option parsing. */

#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>

#include "util/align.hh"
#include "util/options.hh"
#include "util/strings.hh"

using namespace cellbw;
using cellbw::util::Options;

TEST(Strings, Format)
{
    EXPECT_EQ(util::format("%d-%s", 3, "x"), "3-x");
    EXPECT_EQ(util::format("%.2f", 1.005), "1.00");
    EXPECT_EQ(util::format("plain"), "plain");
}

TEST(Strings, Split)
{
    auto v = util::split("a,b,,c", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "");
    EXPECT_EQ(v[3], "c");
    EXPECT_EQ(util::split("", ',').size(), 1u);
}

TEST(Strings, TrimAndLower)
{
    EXPECT_EQ(util::trim("  x y \t\n"), "x y");
    EXPECT_EQ(util::trim(""), "");
    EXPECT_EQ(util::trim("   "), "");
    EXPECT_EQ(util::toLower("AbC-9"), "abc-9");
}

TEST(Strings, BytesToString)
{
    EXPECT_EQ(util::bytesToString(128), "128 B");
    EXPECT_EQ(util::bytesToString(4096), "4 KiB");
    EXPECT_EQ(util::bytesToString(32 * util::MiB), "32 MiB");
    EXPECT_EQ(util::bytesToString(2 * util::GiB), "2 GiB");
    EXPECT_EQ(util::bytesToString(1500), "1500 B");
}

TEST(Strings, ParseByteSize)
{
    EXPECT_EQ(util::parseByteSize("128"), 128u);
    EXPECT_EQ(util::parseByteSize("4K"), 4096u);
    EXPECT_EQ(util::parseByteSize("4KiB"), 4096u);
    EXPECT_EQ(util::parseByteSize(" 2 MB "), 2 * util::MiB);
    EXPECT_EQ(util::parseByteSize("1g"), util::GiB);
    EXPECT_THROW(util::parseByteSize("abc"), std::exception);
    EXPECT_THROW(util::parseByteSize("12X"), std::invalid_argument);
    EXPECT_THROW(util::parseByteSize(""), std::invalid_argument);
}

TEST(Strings, ParseByteSizeRejectsNegativeAndOverflow)
{
    // A sign must not wrap through stoull to a huge positive size.
    EXPECT_THROW(util::parseByteSize("-1"), std::invalid_argument);
    EXPECT_THROW(util::parseByteSize("-4K"), std::invalid_argument);
    EXPECT_THROW(util::parseByteSize("+4K"), std::invalid_argument);
    // The suffix multiplication must not overflow silently.
    EXPECT_THROW(util::parseByteSize("99999999999999999999"),
                 std::out_of_range);
    EXPECT_THROW(util::parseByteSize("18446744073709551615K"),
                 std::out_of_range);
    EXPECT_THROW(util::parseByteSize("17179869184G"), std::out_of_range);
    // Near the edge but representable.
    EXPECT_EQ(util::parseByteSize("17179869183G"),
              17179869183ull * util::GiB);
}

TEST(Strings, ParseUint64IsStrict)
{
    EXPECT_EQ(util::parseUint64("0"), 0u);
    EXPECT_EQ(util::parseUint64(" 42 "), 42u);
    EXPECT_EQ(util::parseUint64("18446744073709551615"),
              18446744073709551615ull);
    EXPECT_THROW(util::parseUint64("-1"), std::invalid_argument);
    EXPECT_THROW(util::parseUint64("+1"), std::invalid_argument);
    EXPECT_THROW(util::parseUint64("12abc"), std::invalid_argument);
    EXPECT_THROW(util::parseUint64("1 2"), std::invalid_argument);
    EXPECT_THROW(util::parseUint64(""), std::invalid_argument);
    EXPECT_THROW(util::parseUint64("abc"), std::invalid_argument);
    EXPECT_THROW(util::parseUint64("18446744073709551616"),
                 std::out_of_range);
}

TEST(Align, IsPow2)
{
    EXPECT_FALSE(util::isPow2(0));
    EXPECT_TRUE(util::isPow2(1));
    EXPECT_TRUE(util::isPow2(128));
    EXPECT_FALSE(util::isPow2(65537));
}

TEST(Align, RoundUpDown)
{
    EXPECT_EQ(util::roundUp(0, 16), 0u);
    EXPECT_EQ(util::roundUp(1, 16), 16u);
    EXPECT_EQ(util::roundUp(16, 16), 16u);
    EXPECT_EQ(util::roundDown(31, 16), 16u);
    EXPECT_EQ(util::divCeil(1, 128), 1u);
    EXPECT_EQ(util::divCeil(129, 128), 2u);
    EXPECT_EQ(util::divCeil(256, 128), 2u);
}

struct DmaSizeCase
{
    std::uint32_t size;
    bool valid;
};

class DmaSizeRule : public ::testing::TestWithParam<DmaSizeCase>
{
};

TEST_P(DmaSizeRule, MatchesCbeaTable)
{
    EXPECT_EQ(util::isValidDmaSize(GetParam().size), GetParam().valid);
}

INSTANTIATE_TEST_SUITE_P(
    Cbea, DmaSizeRule,
    ::testing::Values(
        DmaSizeCase{0, false}, DmaSizeCase{1, true}, DmaSizeCase{2, true},
        DmaSizeCase{3, false}, DmaSizeCase{4, true}, DmaSizeCase{8, true},
        DmaSizeCase{12, false}, DmaSizeCase{16, true},
        DmaSizeCase{48, true}, DmaSizeCase{100, false},
        DmaSizeCase{1024, true}, DmaSizeCase{16 * 1024, true},
        DmaSizeCase{16 * 1024 + 16, false}));

TEST(Align, DmaAlignmentRules)
{
    // Sub-16 sizes: naturally aligned.
    EXPECT_TRUE(util::isValidDmaAlignment(0, 0, 1));
    EXPECT_TRUE(util::isValidDmaAlignment(2, 6, 2));
    EXPECT_FALSE(util::isValidDmaAlignment(1, 2, 2));
    EXPECT_FALSE(util::isValidDmaAlignment(4, 2, 4));
    // >= 16: both 16-byte aligned.
    EXPECT_TRUE(util::isValidDmaAlignment(16, 32, 128));
    EXPECT_FALSE(util::isValidDmaAlignment(8, 32, 128));
    EXPECT_FALSE(util::isValidDmaAlignment(16, 40, 128));
}

TEST(Options, TypedDefaultsAndOverrides)
{
    Options o("prog", "desc");
    o.addUint("count", 5, "a count");
    o.addDouble("rate", 1.5, "a rate");
    o.addBool("flag", false, "a flag");
    o.addString("name", "x", "a name");
    o.addBytes("size", 4096, "a size");

    const char *argv[] = {"prog", "--count=9", "--rate", "2.5", "--flag",
                          "--name=hello", "--size=2M"};
    ASSERT_TRUE(o.parse(7, argv));
    EXPECT_EQ(o.getUint("count"), 9u);
    EXPECT_DOUBLE_EQ(o.getDouble("rate"), 2.5);
    EXPECT_TRUE(o.getBool("flag"));
    EXPECT_EQ(o.getString("name"), "hello");
    EXPECT_EQ(o.getBytes("size"), 2 * util::MiB);
    EXPECT_TRUE(o.isSet("count"));
}

TEST(Options, DefaultsWhenUnset)
{
    Options o("prog", "desc");
    o.addUint("count", 5, "a count");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(o.parse(1, argv));
    EXPECT_EQ(o.getUint("count"), 5u);
    EXPECT_FALSE(o.isSet("count"));
}

TEST(Options, NoPrefixClearsBool)
{
    Options o("prog", "desc");
    o.addBool("csv", true, "emit csv");
    const char *argv[] = {"prog", "--no-csv"};
    ASSERT_TRUE(o.parse(2, argv));
    EXPECT_FALSE(o.getBool("csv"));
}

TEST(Options, RejectsNegativeGarbageAndOverflowValues)
{
    auto fails = [](const char *arg) {
        Options o("prog", "desc");
        o.addUint("count", 5, "a count");
        o.addUint("narrow", 5, "a 32-bit count", UINT_MAX);
        o.addDouble("rate", 1.5, "a rate");
        o.addBytes("size", 4096, "a size");
        const char *argv[] = {"prog", arg};
        return !o.parse(2, argv);
    };
    // A negative uint must not wrap to 2^64-1 via stoull.
    EXPECT_TRUE(fails("--count=-1"));
    // Trailing garbage must not be silently ignored.
    EXPECT_TRUE(fails("--count=8x"));
    EXPECT_TRUE(fails("--count=1 2"));
    EXPECT_TRUE(fails("--rate=1.5mbps"));
    EXPECT_TRUE(fails("--rate="));
    // Out-of-range values must fail at parse time.
    EXPECT_TRUE(fails("--count=18446744073709551616"));
    EXPECT_TRUE(fails("--size=-4K"));
    EXPECT_TRUE(fails("--size=17179869184G"));
    // A bounded option rejects what its 32-bit field would truncate
    // (2^32 read as 0, 2^32 + 1 as 1) and accepts the bound itself.
    EXPECT_TRUE(fails("--narrow=4294967296"));
    EXPECT_TRUE(fails("--narrow=4294967297"));
    EXPECT_FALSE(fails("--narrow=4294967295"));
    EXPECT_FALSE(fails("--count=4294967296"));
}

TEST(Options, UnknownOptionFailsParse)
{
    Options o("prog", "desc");
    const char *argv[] = {"prog", "--nope=1"};
    EXPECT_FALSE(o.parse(2, argv));
}

TEST(Options, BadValueFailsParse)
{
    Options o("prog", "desc");
    o.addUint("count", 5, "a count");
    const char *argv[] = {"prog", "--count=notanumber"};
    EXPECT_FALSE(o.parse(2, argv));
}

TEST(Options, MissingValueFailsParse)
{
    Options o("prog", "desc");
    o.addUint("count", 5, "a count");
    const char *argv[] = {"prog", "--count"};
    EXPECT_FALSE(o.parse(2, argv));
}

TEST(Options, HelpReturnsFalseAndListsOptions)
{
    Options o("prog", "desc");
    o.addUint("count", 5, "how many");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(o.parse(2, argv));
    EXPECT_NE(o.helpText().find("how many"), std::string::npos);
    EXPECT_NE(o.helpText().find("count"), std::string::npos);
}

TEST(Options, PositionalArgumentsCollected)
{
    Options o("prog", "desc");
    const char *argv[] = {"prog", "one", "two"};
    ASSERT_TRUE(o.parse(3, argv));
    ASSERT_EQ(o.positional().size(), 2u);
    EXPECT_EQ(o.positional()[0], "one");
    EXPECT_EQ(o.positional()[1], "two");
}

TEST(Options, WrongTypeAccessorThrows)
{
    Options o("prog", "desc");
    o.addUint("count", 5, "a count");
    EXPECT_THROW(o.getDouble("count"), std::logic_error);
    EXPECT_THROW(o.getUint("missing"), std::logic_error);
}

TEST(Options, DuplicateRegistrationThrows)
{
    Options o("prog", "desc");
    o.addUint("x", 1, "x");
    EXPECT_THROW(o.addBool("x", false, "x again"), std::logic_error);
}

TEST(Options, BoolAcceptsManySpellings)
{
    Options o("prog", "desc");
    o.addBool("a", false, "");
    o.addBool("b", true, "");
    const char *argv[] = {"prog", "--a=yes", "--b=0"};
    ASSERT_TRUE(o.parse(3, argv));
    EXPECT_TRUE(o.getBool("a"));
    EXPECT_FALSE(o.getBool("b"));
}
