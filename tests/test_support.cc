/**
 * @file
 * Unit tests of the support layer: logging, RNG, stats, tables, flags,
 * unit formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/flags.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/table.hh"
#include "support/units.hh"

namespace graphabcd {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Logging, FatalAndPanicAreGraphErrors)
{
    EXPECT_THROW(fatal("x"), GraphError);
    EXPECT_THROW(panic("x"), GraphError);
}

TEST(Logging, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(GRAPHABCD_ASSERT(1 == 2, "math broke"), PanicError);
    EXPECT_NO_THROW(GRAPHABCD_ASSERT(1 == 1, "fine"));
}

TEST(Logging, MessageCarriesConcatenatedPieces)
{
    try {
        fatal("value is ", 7, ", not ", 3.5);
        FAIL() << "fatal() returned";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(), "value is 7, not 3.5");
    }
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; i++)
        equal += a() == b();
    EXPECT_LT(equal, 4);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; i++) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextBoundedStaysInRange)
{
    Rng rng(9);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, NextBoundedCoversSmallRangeUniformly)
{
    Rng rng(11);
    std::array<int, 8> hist{};
    const int samples = 80000;
    for (int i = 0; i < samples; i++)
        hist[rng.nextBounded(8)]++;
    for (int count : hist) {
        EXPECT_GT(count, samples / 8 * 0.9);
        EXPECT_LT(count, samples / 8 * 1.1);
    }
}

TEST(Rng, GaussianMomentsLookNormal)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int samples = 100000;
    for (int i = 0; i < samples; i++) {
        double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / samples, 0.0, 0.02);
    EXPECT_NEAR(sq / samples, 1.0, 0.03);
}

TEST(Zipf, ZeroThetaIsUniform)
{
    Rng rng(17);
    ZipfSampler zipf(10, 0.0);
    std::array<int, 10> hist{};
    for (int i = 0; i < 50000; i++)
        hist[zipf.sample(rng)]++;
    for (int count : hist)
        EXPECT_GT(count, 4000);
}

TEST(Zipf, SkewPrefersLowIndices)
{
    Rng rng(19);
    ZipfSampler zipf(1000, 0.9);
    std::uint64_t head = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; i++)
        head += zipf.sample(rng) < 10;
    // With theta=0.9 the top-10 items receive far more than 1% of draws.
    EXPECT_GT(head, total / 10);
}

TEST(Zipf, SamplesStayInRange)
{
    Rng rng(23);
    ZipfSampler zipf(37, 0.7);
    for (int i = 0; i < 10000; i++)
        EXPECT_LT(zipf.sample(rng), 37u);
}

TEST(Table, RendersAlignedAscii)
{
    Table t({"name", "value"});
    t.row().add("pi").add(3.14159, 3);
    t.row().add("answer").add(42);
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEscapesCommas)
{
    Table t({"a"});
    t.row().add("x,y");
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_NE(oss.str().find("\"x,y\""), std::string::npos);
}

TEST(Table, OverfilledRowPanics)
{
    Table t({"only"});
    t.row().add("one");
    EXPECT_THROW(t.add("two"), PanicError);
}

TEST(Flags, ParsesAllForms)
{
    Flags flags;
    flags.declare("name", "default", "a string");
    flags.declareInt("count", 3, "an int");
    flags.declareDouble("ratio", 0.5, "a double");
    flags.declareBool("fast", false, "a switch");

    const char *argv[] = {"prog", "--name=alice", "--count", "7",
                          "--fast"};
    ASSERT_TRUE(flags.parse(5, const_cast<char **>(argv)));
    EXPECT_EQ(flags.get("name"), "alice");
    EXPECT_EQ(flags.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(flags.getDouble("ratio"), 0.5);
    EXPECT_TRUE(flags.getBool("fast"));
}

TEST(Flags, UnknownFlagIsFatal)
{
    Flags flags;
    const char *argv[] = {"prog", "--nope", "1"};
    EXPECT_THROW(flags.parse(3, const_cast<char **>(argv)), FatalError);
}

TEST(Units, FormatBytesPicksSuffix)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2 KiB");
    EXPECT_EQ(formatBytes(2.69 * 1024 * 1024), "2.69 MiB");
}

TEST(Units, FormatCountInsertsSeparators)
{
    EXPECT_EQ(formatCount(1470000000ULL), "1,470,000,000");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1000), "1,000");
}

TEST(Units, FormatSecondsAdapts)
{
    EXPECT_NE(formatSeconds(0.034).find("ms"), std::string::npos);
    EXPECT_NE(formatSeconds(1.577).find("s"), std::string::npos);
    EXPECT_NE(formatSeconds(2e-7).find("ns"), std::string::npos);
}

} // namespace
} // namespace graphabcd
