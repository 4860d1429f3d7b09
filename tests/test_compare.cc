/** @file Tests for the report comparison gate behind `cellbw compare`. */

#include <gtest/gtest.h>

#include <string>

#include "core/compare.hh"

using namespace cellbw;

namespace
{

std::string
doc(const std::string &points, const char *schema = "cellbw-bench-v2",
    const std::string &metrics = "{}")
{
    std::string d = "{\"schema\":\"";
    d += schema;
    d += "\",\"bench\":\"b\",\"figure\":\"f\",\"description\":\"d\","
         "\"config\":{\"runs\":2},\"points\":[";
    d += points;
    d += "],\"metrics\":";
    d += metrics;
    d += "}";
    return d;
}

std::string
point(const char *table, const char *op, double gbps)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"table\":\"%s\",\"op\":\"%s\",\"GB/s\":%.17g}",
                  table, op, gbps);
    return buf;
}

core::CompareResult
compare(const std::string &cand, const std::string &base,
        const core::ComparePolicy &policy = {})
{
    core::CompareResult result;
    std::string err;
    EXPECT_TRUE(core::compareReportTexts(cand, base, policy, result,
                                         err))
        << err;
    return result;
}

} // namespace

TEST(Compare, IdenticalReportsPass)
{
    std::string d = doc(point("results", "Get", 10.0) + "," +
                        point("results", "Put", 11.5));
    auto r = compare(d, d);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.pointsCompared, 2u);
    EXPECT_GE(r.valuesCompared, 2u);
}

TEST(Compare, JustInsideToleranceRasses)
{
    core::ComparePolicy p;
    p.tolPct = 5.0;
    // 10.0 -> 10.49: +4.9%, inside a 5% gate.
    auto r = compare(doc(point("results", "Get", 10.49)),
                     doc(point("results", "Get", 10.0)), p);
    EXPECT_TRUE(r.ok()) << (r.regressions.empty()
                                ? ""
                                : r.regressions.front());
}

TEST(Compare, JustOutsideToleranceFails)
{
    core::ComparePolicy p;
    p.tolPct = 5.0;
    // 10.0 -> 10.51: +5.1%, outside a 5% gate.
    auto r = compare(doc(point("results", "Get", 10.51)),
                     doc(point("results", "Get", 10.0)), p);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.regressions.size(), 1u);
    EXPECT_NE(r.regressions.front().find("GB/s"), std::string::npos);
}

TEST(Compare, ZeroToleranceIsExact)
{
    auto r = compare(doc(point("results", "Get", 10.000001)),
                     doc(point("results", "Get", 10.0)));
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(compare(doc(point("results", "Get", 10.0)),
                        doc(point("results", "Get", 10.0)))
                    .ok());
}

TEST(Compare, PerColumnToleranceOverridesGlobal)
{
    core::ComparePolicy p;
    p.tolPct = 0.0;
    p.columnTolPct["GB/s"] = 20.0;
    auto r = compare(doc(point("results", "Get", 11.0)),
                     doc(point("results", "Get", 10.0)), p);
    EXPECT_TRUE(r.ok());
}

TEST(Compare, MissingPointIsARegression)
{
    auto r = compare(doc(point("results", "Get", 10.0)),
                     doc(point("results", "Get", 10.0) + "," +
                         point("results", "Put", 11.0)));
    EXPECT_FALSE(r.ok());
}

TEST(Compare, ExtraPointIsARegression)
{
    auto r = compare(doc(point("results", "Get", 10.0) + "," +
                         point("results", "Put", 11.0)),
                     doc(point("results", "Get", 10.0)));
    EXPECT_FALSE(r.ok());
}

TEST(Compare, MissingTableIsARegression)
{
    auto r = compare(doc(point("other", "Get", 10.0)),
                     doc(point("results", "Get", 10.0)));
    EXPECT_FALSE(r.ok());
}

TEST(Compare, IdentityCellMismatchIsARegression)
{
    auto r = compare(doc(point("results", "Put", 10.0)),
                     doc(point("results", "Get", 10.0)));
    EXPECT_FALSE(r.ok());
}

TEST(Compare, V1BaselineIsAccepted)
{
    auto r = compare(doc(point("results", "Get", 10.0)),
                     doc(point("results", "Get", 10.0),
                         "cellbw-bench-v1"));
    EXPECT_TRUE(r.ok());
}

TEST(Compare, V2BaselineIsAccepted)
{
    auto r = compare(doc(point("results", "Get", 10.0)),
                     doc(point("results", "Get", 10.0),
                         "cellbw-bench-v2"));
    EXPECT_TRUE(r.ok());
}

TEST(Compare, V3ReportsAreAccepted)
{
    // v3 on both sides, and v3 candidate against a v2 baseline (the
    // committed-baseline upgrade path).
    auto r = compare(doc(point("results", "Get", 10.0),
                         "cellbw-bench-v3"),
                     doc(point("results", "Get", 10.0),
                         "cellbw-bench-v3"));
    EXPECT_TRUE(r.ok());
    auto up = compare(doc(point("results", "Get", 10.0),
                          "cellbw-bench-v3"),
                      doc(point("results", "Get", 10.0),
                          "cellbw-bench-v2"));
    EXPECT_TRUE(up.ok());
}

TEST(Compare, UnknownSchemaIsMalformed)
{
    core::CompareResult result;
    std::string err;
    EXPECT_FALSE(core::compareReportTexts(
        doc(point("results", "Get", 10.0), "not-a-bench-schema"),
        doc(point("results", "Get", 10.0)), {}, result, err));
    EXPECT_FALSE(err.empty());
}

TEST(Compare, MalformedJsonIsAnError)
{
    core::CompareResult result;
    std::string err;
    EXPECT_FALSE(core::compareReportTexts(
        "{\"schema\":", doc(point("results", "Get", 10.0)), {}, result,
        err));
    EXPECT_FALSE(err.empty());
}

TEST(Compare, MetricsGateIsOptIn)
{
    std::string cand = doc(point("results", "Get", 10.0),
                           "cellbw-bench-v2", "{\"eib.packets\":100}");
    std::string base = doc(point("results", "Get", 10.0),
                           "cellbw-bench-v2", "{\"eib.packets\":200}");
    EXPECT_TRUE(compare(cand, base).ok());

    core::ComparePolicy p;
    p.includeMetrics = true;
    auto r = compare(cand, base, p);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.metricsCompared, 1u);

    p.metricsTolPct = 60.0;
    EXPECT_TRUE(compare(cand, base, p).ok());
}

TEST(Compare, IdenticalHistogramMetricPasses)
{
    const std::string hist = "{\"spe0.mfc.queue_depth\":{\"count\":6,"
                             "\"sum\":9,\"mean\":1.5,"
                             "\"buckets\":[0,3,3]}}";
    std::string d = doc(point("results", "Get", 10.0), "cellbw-bench-v3",
                        hist);
    core::ComparePolicy p;
    p.includeMetrics = true;
    auto r = compare(d, d, p);
    EXPECT_TRUE(r.ok()) << r.regressions.front();
    EXPECT_EQ(r.metricsCompared, 1u);
}

TEST(Compare, FlippedHistogramBucketFails)
{
    auto hist = [](const char *buckets) {
        return std::string("{\"spe0.mfc.queue_depth\":{\"count\":6,"
                           "\"sum\":9,\"mean\":1.5,\"buckets\":") +
               buckets + "}}";
    };
    std::string cand = doc(point("results", "Get", 10.0),
                           "cellbw-bench-v3", hist("[0,3,3]"));
    std::string base = doc(point("results", "Get", 10.0),
                           "cellbw-bench-v3", hist("[3,0,3]"));
    core::ComparePolicy p;
    p.includeMetrics = true;
    auto r = compare(cand, base, p);
    ASSERT_EQ(r.regressions.size(), 1u);
    EXPECT_NE(r.regressions[0].find("spe0.mfc.queue_depth"),
              std::string::npos);
    EXPECT_EQ(r.regressions[0].find("missing"), std::string::npos);

    // A histogram that became a plain counter changed type.
    std::string counter = doc(point("results", "Get", 10.0),
                              "cellbw-bench-v3",
                              "{\"spe0.mfc.queue_depth\":6}");
    r = compare(counter, base, p);
    ASSERT_EQ(r.regressions.size(), 1u);
    EXPECT_NE(r.regressions[0].find("changed type"), std::string::npos);
}

TEST(Compare, ParseColumnTols)
{
    std::map<std::string, double> tols;
    std::string err;
    ASSERT_TRUE(core::parseColumnTols("GB/s(mean)=10,half-RT(us)=2.5",
                                      tols, err));
    EXPECT_EQ(tols.size(), 2u);
    EXPECT_DOUBLE_EQ(tols["GB/s(mean)"], 10.0);
    EXPECT_DOUBLE_EQ(tols["half-RT(us)"], 2.5);

    EXPECT_FALSE(core::parseColumnTols("nopct", tols, err));
    EXPECT_FALSE(core::parseColumnTols("x=-3", tols, err));
    EXPECT_FALSE(core::parseColumnTols("x=abc", tols, err));
}
