/**
 * @file
 * Tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/flags.hh"
#include "util/thread_pool.hh"

namespace longsight {
namespace {

Flags
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax)
{
    const Flags f = parse({"--count=42", "--name=widget"});
    EXPECT_EQ(f.getInt("count", 0), 42);
    EXPECT_EQ(f.getString("name", ""), "widget");
}

TEST(Flags, SpaceSyntax)
{
    const Flags f = parse({"--count", "7", "--ratio", "2.5"});
    EXPECT_EQ(f.getInt("count", 0), 7);
    EXPECT_DOUBLE_EQ(f.getDouble("ratio", 0.0), 2.5);
}

TEST(Flags, BareSwitchIsTrue)
{
    const Flags f = parse({"--verbose"});
    EXPECT_TRUE(f.getBool("verbose"));
    EXPECT_FALSE(f.getBool("quiet"));
}

TEST(Flags, ExplicitBooleans)
{
    const Flags f = parse({"--a=true", "--b=false", "--c=1", "--d=0"});
    EXPECT_TRUE(f.getBool("a"));
    EXPECT_FALSE(f.getBool("b"));
    EXPECT_TRUE(f.getBool("c"));
    EXPECT_FALSE(f.getBool("d"));
}

TEST(Flags, PositionalCollected)
{
    const Flags f = parse({"serve", "--users=3", "extra"});
    ASSERT_EQ(f.positional().size(), 2u);
    EXPECT_EQ(f.positional()[0], "serve");
    EXPECT_EQ(f.positional()[1], "extra");
}

TEST(Flags, DefaultsWhenAbsent)
{
    const Flags f = parse({});
    EXPECT_EQ(f.getInt("missing", -5), -5);
    EXPECT_EQ(f.getString("missing", "d"), "d");
    EXPECT_DOUBLE_EQ(f.getDouble("missing", 1.5), 1.5);
}

TEST(Flags, UnconsumedReportsTypos)
{
    const Flags f = parse({"--right=1", "--wrnog=2"});
    f.getInt("right", 0);
    const auto leftover = f.unconsumed();
    ASSERT_EQ(leftover.size(), 1u);
    EXPECT_EQ(leftover[0], "wrnog");
}

TEST(Flags, BadIntegerDies)
{
    const Flags f = parse({"--n=abc"});
    EXPECT_DEATH({ f.getInt("n", 0); }, "integer");
}

TEST(Flags, CountWithinRange)
{
    const Flags f = parse({"--k=3"});
    EXPECT_EQ(f.getCount("k", 1024, 1), 3u);
    EXPECT_EQ(f.getCount("k", 1024, 1, 3), 3u); // the bounds are inclusive
    EXPECT_EQ(f.getCount("missing", 9, 1), 9u);
}

TEST(Flags, NegativeCountIsFatal)
{
    // A negative count must not wrap into a huge unsigned one (a
    // --threads of 2^32 - 1 would start that many workers).
    const Flags f = parse({"--threads", "-1"});
    EXPECT_EXIT({ f.getCount("threads", 0); },
                ::testing::ExitedWithCode(1),
                "fatal: flag --threads must be at least 0, got -1");
}

TEST(Flags, CountBelowMinimumIsFatal)
{
    const Flags f = parse({"--k=0"});
    EXPECT_EXIT({ f.getCount("k", 1024, 1); },
                ::testing::ExitedWithCode(1),
                "fatal: flag --k must be at least 1, got 0");
}

TEST(Flags, CountAboveMaximumIsFatal)
{
    // Parses argv only and never builds a pool: the cap must stop a
    // runaway thread count before anything could start that many.
    const Flags f = parse({"--threads", "100000"});
    EXPECT_EXIT({ f.getCount("threads", 0, 0, kMaxFlagThreads); },
                ::testing::ExitedWithCode(1),
                "fatal: flag --threads must be at most " +
                    std::to_string(kMaxFlagThreads) + ", got 100000");
}

TEST(Flags, PositiveRealFlags)
{
    const Flags f = parse({"--rate=0.5", "--zero=0", "--neg=-2",
                           "--nan=nan", "--inf=inf"});
    EXPECT_EQ(f.getPositive("rate", 2.0), 0.5);
    EXPECT_EQ(f.getPositive("missing", 2.0), 2.0);
    for (const char *name : {"zero", "neg", "nan", "inf"})
        EXPECT_EXIT({ f.getPositive(name, 1.0); },
                    ::testing::ExitedWithCode(1),
                    std::string("fatal: flag --") + name +
                        " must be a positive finite number");
}

TEST(Flags, CountLists)
{
    const Flags f = parse({"--ctx=8192,,32768,", "--abc=abc", "--mixed=1,x",
                           "--empty=,", "--neg=4,-1", "--big=2,5000"});
    EXPECT_EQ(f.getCountList("ctx", "1", 1),
              (std::vector<uint64_t>{8192, 32768}));
    EXPECT_EQ(f.getCountList("missing", "1,2,4", 1),
              (std::vector<uint64_t>{1, 2, 4}));
    EXPECT_EXIT({ f.getCountList("abc", "1", 1); },
                ::testing::ExitedWithCode(1),
                "fatal: flag --abc expects a comma-separated list of "
                "integers, got 'abc'");
    EXPECT_EXIT({ f.getCountList("mixed", "1", 1); },
                ::testing::ExitedWithCode(1),
                "fatal: flag --mixed expects a comma-separated list");
    EXPECT_EXIT({ f.getCountList("empty", "1", 1); },
                ::testing::ExitedWithCode(1),
                "fatal: flag --empty expects at least one entry");
    EXPECT_EXIT({ f.getCountList("neg", "1", 1); },
                ::testing::ExitedWithCode(1),
                "fatal: flag --neg must be at least 1, got -1");
    // Never builds a pool: the cap is checked on the parsed entry.
    EXPECT_EXIT({ f.getCountList("big", "1", 0, kMaxFlagThreads); },
                ::testing::ExitedWithCode(1),
                "fatal: flag --big must be at most " +
                    std::to_string(kMaxFlagThreads) + ", got 5000");
}

TEST(Flags, RejectUnconsumedNamesTheFlag)
{
    const Flags f = parse({"--known=1", "--typo=2"});
    EXPECT_EQ(f.getInt("known", 0), 1);
    EXPECT_EXIT({ f.rejectUnconsumed(); }, ::testing::ExitedWithCode(1),
                "fatal: unknown flag --typo");
    f.getInt("typo", 0);
    f.rejectUnconsumed(); // everything queried: returns
}

TEST(Flags, NegativeNumberAsValue)
{
    // "--n -3": -3 does not start with "--" so it binds as the value.
    const Flags f = parse({"--n", "-3"});
    EXPECT_EQ(f.getInt("n", 0), -3);
}

} // namespace
} // namespace longsight
