/**
 * @file
 * Tests of the serve line protocol's request parsing (serve/protocol):
 * well-formed LOAD and RUN lines fill every field, and each kind of
 * malformed line (a bare token, an empty key, a non-number, a negative,
 * fractional or overflowing integer, an unknown key, schedule or
 * layout) is an error message, never a wrapped value.  Unknown algo
 * and engine names pass the parser and are refused by isRunnable.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "serve/runner.hh"

namespace graphabcd {
namespace {

TEST(Protocol, TokenizeSplitsOnAnyWhitespace)
{
    EXPECT_EQ(tokenize("  RUN\tg  pr \n"),
              (std::vector<std::string>{"RUN", "g", "pr"}));
    EXPECT_TRUE(tokenize("   ").empty());
}

TEST(Protocol, NumbersAreStrict)
{
    EXPECT_EQ(parseUnsigned("0"), 0u);
    EXPECT_EQ(parseUnsigned("18446744073709551615"),
              18446744073709551615ull);
    EXPECT_EQ(parseUnsigned("7", 1, 7), 7u);
    for (const char *bad : {"", "-1", "+1", "1.5", "1e3", " 1", "1 ", "x",
                            "18446744073709551616"})
        EXPECT_FALSE(parseUnsigned(bad).has_value()) << bad;
    EXPECT_FALSE(parseUnsigned("0", 1, 7).has_value());
    EXPECT_FALSE(parseUnsigned("8", 1, 7).has_value());

    EXPECT_EQ(parseReal("-1"), -1.0);
    EXPECT_EQ(parseReal("1e9"), 1e9);
    EXPECT_EQ(parseReal("0.001"), 0.001);
    for (const char *bad : {"", "x", "1x", "nan", "inf", "1e999", " 1"})
        EXPECT_FALSE(parseReal(bad).has_value()) << bad;
}

TEST(Protocol, RunFillsEveryField)
{
    JobRequest req;
    std::string error;
    ASSERT_TRUE(parseRun(
        tokenize("RUN web sssp engine=fragment tenant=gold source=17 k=5 "
                 "priority=2.5 timeout=0.5 tolerance=-1 max-epochs=1e9 "
                 "schedule=obim threads=3 fragments=4 cached=0 warm=0"),
        &req, &error))
        << error;
    EXPECT_EQ(req.graph, "web");
    EXPECT_EQ(req.algo, "sssp");
    EXPECT_EQ(req.engine, "fragment");
    EXPECT_EQ(req.tenant, "gold");
    EXPECT_EQ(req.source, 17u);
    EXPECT_EQ(req.k, 5u);
    EXPECT_EQ(req.priority, 2.5);
    EXPECT_EQ(req.timeoutSeconds, 0.5);
    EXPECT_EQ(req.options.tolerance, -1.0);
    EXPECT_EQ(req.options.maxEpochs, 1e9);
    EXPECT_EQ(req.options.schedule, Schedule::Obim);
    EXPECT_EQ(req.options.numThreads, 3u);
    EXPECT_EQ(req.options.fragments, 4u);
    EXPECT_FALSE(req.allowCached);
    EXPECT_FALSE(req.allowWarmStart);
}

TEST(Protocol, RunKeepsTheDefaultsOfOmittedKeys)
{
    JobRequest req;
    req.options.fragments = 3;   // e.g. abcd_serve --fragments=3
    std::string error;
    ASSERT_TRUE(parseRun(tokenize("RUN web pr"), &req, &error)) << error;
    const JobRequest defaults;
    EXPECT_EQ(req.engine, defaults.engine);
    EXPECT_EQ(req.source, defaults.source);
    EXPECT_EQ(req.options.schedule, defaults.options.schedule);
    EXPECT_EQ(req.options.tolerance, defaults.options.tolerance);
    EXPECT_EQ(req.options.fragments, 3u);
    EXPECT_TRUE(req.allowCached);
}

TEST(Protocol, MalformedRunLinesAreErrors)
{
    for (const char *line : {
             "RUN web",                       // no algo
             "RUN web pr source",             // bare token
             "RUN web pr =x",                 // empty key
             "RUN web pr source=abc",         // non-number
             "RUN web pr source=",            // empty value
             "RUN web pr source=-1",          // negative
             "RUN web pr threads=1.5",        // fractional
             "RUN web pr source=4294967296",  // overflows VertexId
             "RUN web pr k=-3",
             "RUN web pr threads=0",          // below range
             "RUN web pr fragments=0",
             "RUN web pr tolerance=nan",
             "RUN web pr timeout=x",
             "RUN web pr cached=2",
             "RUN web pr schedule=prio",      // unknown schedule
             "RUN web pr schedule=random",
             "RUN web pr sourse=3",           // unknown key
         }) {
        JobRequest req;
        std::string error;
        EXPECT_FALSE(parseRun(tokenize(line), &req, &error)) << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

TEST(Protocol, UnknownAlgoAndEngineAreLeftToIsRunnable)
{
    for (const char *line :
         {"RUN web pr engine=bogus", "RUN web bogus engine=serial"}) {
        JobRequest req;
        std::string error;
        ASSERT_TRUE(parseRun(tokenize(line), &req, &error)) << line;
        std::string why;
        EXPECT_FALSE(isRunnable(req, &why)) << line;
        EXPECT_NE(why.find("bogus"), std::string::npos) << why;
    }
}

TEST(Protocol, LoadFillsEveryField)
{
    LoadSpec spec;
    std::string error;
    ASSERT_TRUE(parseLoad(
        tokenize("LOAD web WT scale=0.2 seed=7 block-size=64 undirected=1 "
                 "layout=compressed reorder=hub"),
        &spec, &error))
        << error;
    EXPECT_EQ(spec.name, "web");
    EXPECT_EQ(spec.source, "WT");
    EXPECT_EQ(spec.scale, 0.2);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_EQ(spec.blockSize, 64u);
    EXPECT_TRUE(spec.undirected);
    EXPECT_EQ(spec.layout.layout, GraphLayout::Compressed);
    EXPECT_EQ(spec.layout.reorder, VertexReorder::Hub);
}

TEST(Protocol, MalformedLoadLinesAreErrors)
{
    for (const char *line : {
             "LOAD web",                                 // no source
             "LOAD web WT scale",                        // bare token
             "LOAD web WT =1",                           // empty key
             "LOAD web WT scale=0",                      // not positive
             "LOAD web WT scale=big",                    // non-number
             "LOAD web WT block-size=-512",              // negative
             "LOAD web WT block-size=0",
             "LOAD web WT block-size=4294967296",        // overflows
             "LOAD web WT seed=1.5",                     // fractional
             "LOAD web WT seed=18446744073709551616",    // overflows
             "LOAD web WT undirected=yes",
             "LOAD web WT layout=sparse",
             "LOAD web WT reorder=random",
             "LOAD web WT engine=async",                 // RUN's key
         }) {
        LoadSpec spec;
        std::string error;
        EXPECT_FALSE(parseLoad(tokenize(line), &spec, &error)) << line;
        EXPECT_FALSE(error.empty()) << line;
    }
}

} // namespace
} // namespace graphabcd
