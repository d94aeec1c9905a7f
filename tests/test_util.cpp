#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "dmst/util/assert.h"
#include "dmst/util/cli.h"
#include "dmst/util/dsu.h"
#include "dmst/util/intmath.h"
#include "dmst/util/rng.h"
#include "dmst/util/table.h"

namespace dmst {
namespace {

// ------------------------------------------------------------- intmath

TEST(IntMath, FloorLog2KnownValues)
{
    EXPECT_EQ(floor_log2(1), 0);
    EXPECT_EQ(floor_log2(2), 1);
    EXPECT_EQ(floor_log2(3), 1);
    EXPECT_EQ(floor_log2(4), 2);
    EXPECT_EQ(floor_log2(1023), 9);
    EXPECT_EQ(floor_log2(1024), 10);
    EXPECT_EQ(floor_log2(~std::uint64_t{0}), 63);
}

TEST(IntMath, CeilLog2KnownValues)
{
    EXPECT_EQ(ceil_log2(1), 0);
    EXPECT_EQ(ceil_log2(2), 1);
    EXPECT_EQ(ceil_log2(3), 2);
    EXPECT_EQ(ceil_log2(4), 2);
    EXPECT_EQ(ceil_log2(5), 3);
    EXPECT_EQ(ceil_log2(1024), 10);
    EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(IntMath, CeilFloorLog2Relation)
{
    for (std::uint64_t x = 1; x < 5000; ++x) {
        int f = floor_log2(x);
        int c = ceil_log2(x);
        EXPECT_LE(f, c);
        EXPECT_LE(c, f + 1);
        EXPECT_LE(std::uint64_t{1} << f, x);
        if (c < 63) {
            EXPECT_GE(std::uint64_t{1} << c, x);
        }
    }
}

TEST(IntMath, LogStarKnownValues)
{
    EXPECT_EQ(log_star(1), 0);
    EXPECT_EQ(log_star(2), 1);
    EXPECT_EQ(log_star(3), 2);
    EXPECT_EQ(log_star(4), 2);
    EXPECT_EQ(log_star(5), 3);
    EXPECT_EQ(log_star(16), 3);
    EXPECT_EQ(log_star(17), 4);
    EXPECT_EQ(log_star(65536), 4);
    EXPECT_EQ(log_star(65537), 5);
    EXPECT_EQ(log_star(~std::uint64_t{0}), 5);
}

TEST(IntMath, LogStarMonotone)
{
    for (std::uint64_t x = 2; x < 100000; x += 7)
        EXPECT_GE(log_star(x + 1), log_star(x));
}

TEST(IntMath, IsqrtExactOnSquares)
{
    for (std::uint64_t r = 0; r < 3000; ++r) {
        EXPECT_EQ(isqrt(r * r), r);
        if (r >= 1) {
            EXPECT_EQ(isqrt(r * r - 1), r - 1);
            EXPECT_EQ(isqrt(r * r + 1), r);  // r^2+1 < (r+1)^2 needs r >= 1
        }
    }
}

TEST(IntMath, IsqrtLargeValues)
{
    EXPECT_EQ(isqrt(~std::uint64_t{0}), 0xFFFFFFFFULL);
    std::uint64_t big = 0xFFFFFFFFULL;
    EXPECT_EQ(isqrt(big * big), big);
    EXPECT_EQ(isqrt(big * big - 1), big - 1);
}

TEST(IntMath, CeilDiv)
{
    EXPECT_EQ(ceil_div(0, 5), 0u);
    EXPECT_EQ(ceil_div(1, 5), 1u);
    EXPECT_EQ(ceil_div(5, 5), 1u);
    EXPECT_EQ(ceil_div(6, 5), 2u);
    EXPECT_EQ(ceil_div(10, 1), 10u);
}

TEST(IntMath, PreconditionsThrow)
{
    EXPECT_THROW(floor_log2(0), InvariantViolation);
    EXPECT_THROW(ceil_log2(0), InvariantViolation);
    EXPECT_THROW(log_star(0), InvariantViolation);
    EXPECT_THROW(ceil_div(1, 0), InvariantViolation);
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 60);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowHitsAllResidues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.next_below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveBounds)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.next_in(10, 12);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 12u);
    }
    EXPECT_EQ(rng.next_in(5, 5), 5u);
}

TEST(Rng, PreconditionThrows)
{
    Rng rng(1);
    EXPECT_THROW(rng.next_below(0), InvariantViolation);
    EXPECT_THROW(rng.next_in(3, 2), InvariantViolation);
}

// ----------------------------------------------------------------- dsu

TEST(Dsu, InitiallyAllSingletons)
{
    Dsu dsu(5);
    EXPECT_EQ(dsu.component_count(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(dsu.find(i), i);
}

TEST(Dsu, UniteMergesAndCounts)
{
    Dsu dsu(6);
    EXPECT_TRUE(dsu.unite(0, 1));
    EXPECT_TRUE(dsu.unite(2, 3));
    EXPECT_FALSE(dsu.unite(1, 0));
    EXPECT_EQ(dsu.component_count(), 4u);
    EXPECT_TRUE(dsu.same(0, 1));
    EXPECT_FALSE(dsu.same(0, 2));
    EXPECT_TRUE(dsu.unite(1, 3));
    EXPECT_TRUE(dsu.same(0, 2));
    EXPECT_EQ(dsu.component_count(), 3u);
}

TEST(Dsu, ChainUniteProducesOneComponent)
{
    const std::size_t n = 1000;
    Dsu dsu(n);
    for (std::size_t i = 0; i + 1 < n; ++i)
        EXPECT_TRUE(dsu.unite(i, i + 1));
    EXPECT_EQ(dsu.component_count(), 1u);
    for (std::size_t i = 1; i < n; ++i)
        EXPECT_TRUE(dsu.same(0, i));
}

TEST(Dsu, OutOfRangeThrows)
{
    Dsu dsu(3);
    EXPECT_THROW(dsu.find(3), InvariantViolation);
}

// --------------------------------------------------------------- table

TEST(Table, PrintAligned)
{
    Table t({"n", "rounds"});
    t.new_row().add(std::int64_t{10}).add(std::int64_t{42});
    t.new_row().add(std::int64_t{1000}).add(std::int64_t{7});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("rounds"), std::string::npos);
    EXPECT_NE(out.find("1000"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, TooManyCellsThrows)
{
    Table t({"only"});
    t.new_row().add(std::int64_t{1});
    EXPECT_THROW(t.add(std::int64_t{2}), InvariantViolation);
}

TEST(Table, AddWithoutRowThrows)
{
    Table t({"x"});
    EXPECT_THROW(t.add(std::int64_t{1}), InvariantViolation);
}

// ----------------------------------------------------------------- cli

TEST(Cli, DefaultsAndParsing)
{
    Args args;
    args.define("n", "100", "vertex count");
    args.define("family", "er", "graph family");
    args.define("verbose", "false", "verbosity");

    const char* argv[] = {"prog", "--n=25", "--family", "grid"};
    args.parse(4, argv);
    EXPECT_EQ(args.get_int("n"), 25);
    EXPECT_EQ(args.get("family"), "grid");
    EXPECT_EQ(args.get("verbose"), "false");  // the default
}

TEST(Cli, UnknownFlagThrows)
{
    Args args;
    args.define("n", "1", "");
    const char* argv[] = {"prog", "--bogus=1"};
    EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
}

TEST(Cli, MalformedValueThrows)
{
    Args args;
    args.define("n", "1", "");
    const char* argv[] = {"prog", "--n=12x"};
    args.parse(2, argv);
    EXPECT_THROW(args.get_int("n"), std::invalid_argument);
}

TEST(Cli, MissingValueThrows)
{
    Args args;
    args.define("n", "1", "");
    const char* argv[] = {"prog", "--n"};
    EXPECT_THROW(args.parse(2, argv), std::invalid_argument);
}

TEST(Cli, HelpListsFlags)
{
    Args args;
    args.define("n", "100", "vertex count");
    EXPECT_NE(args.help().find("vertex count"), std::string::npos);
}

TEST(Cli, HelpFlagExitsZero)
{
    Args args;
    args.define("n", "100", "vertex count");
    const char* argv[] = {"prog", "--n=3", "--help"};
    EXPECT_EXIT(args.parse(3, argv), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace dmst
