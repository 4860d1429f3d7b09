/** @file Tests for the JSON writer, metrics registry, and JSON report. */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/json_report.hh"
#include "sim/logging.hh"
#include "stats/json_writer.hh"
#include "stats/metrics.hh"
#include "stats/table.hh"
#include "util/options.hh"
#include "util/types.hh"

using namespace cellbw;

// --------------------------------------------------------------------
// JsonWriter
// --------------------------------------------------------------------

TEST(JsonWriter, GoldenDocument)
{
    stats::JsonWriter w;
    w.beginObject();
    w.key("name").value("bench");
    w.key("n").value(42u);
    w.key("neg").value(std::int64_t{-7});
    w.key("pi").value(0.5);
    w.key("ok").value(true);
    w.key("none").null();
    w.key("list").beginArray().value(1).value(2).endArray();
    w.key("nested").beginObject().key("x").value(1).endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"bench\",\"n\":42,\"neg\":-7,\"pi\":0.5,"
              "\"ok\":true,\"none\":null,\"list\":[1,2],"
              "\"nested\":{\"x\":1}}");
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(stats::JsonWriter::escape("a\"b\\c\n\t"),
              "a\\\"b\\\\c\\n\\t");
    EXPECT_EQ(stats::JsonWriter::escape(std::string("\x01", 1)),
              "\\u0001");
}

TEST(JsonWriter, NumberFormatting)
{
    EXPECT_EQ(stats::JsonWriter::number(3.0), "3");
    EXPECT_EQ(stats::JsonWriter::number(-2.0), "-2");
    EXPECT_EQ(stats::JsonWriter::number(0.25), "0.25");
    // Non-finite values are not representable in JSON.
    EXPECT_EQ(stats::JsonWriter::number(0.0 / 0.0), "null");
    EXPECT_EQ(stats::JsonWriter::number(1.0 / 0.0), "null");
    // Round-trip precision: the printed text parses back exactly.
    double v = 0.1 + 0.2;
    EXPECT_EQ(std::stod(stats::JsonWriter::number(v)), v);
}

TEST(JsonWriter, MisuseIsFatal)
{
    {
        stats::JsonWriter w;
        EXPECT_THROW(w.key("k"), sim::FatalError);  // key outside object
    }
    {
        stats::JsonWriter w;
        w.beginObject();
        EXPECT_THROW(w.endArray(), sim::FatalError);  // mismatched end
    }
    {
        stats::JsonWriter w;
        w.beginObject();
        EXPECT_THROW(w.str(), sim::FatalError);  // incomplete document
    }
}

// --------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------

TEST(Metrics, RegistrationIsIdempotent)
{
    stats::MetricsRegistry reg;
    stats::Counter &a = reg.counter("eib0.ring0.grants");
    stats::Counter &b = reg.counter("eib0.ring0.grants");
    EXPECT_EQ(&a, &b);
    a.add(3);
    b.increment();
    EXPECT_EQ(a.value(), 4u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, CrossKindCollisionIsFatal)
{
    stats::MetricsRegistry reg;
    reg.counter("mem.bank0.bytes");
    EXPECT_THROW(reg.gauge("mem.bank0.bytes"), sim::FatalError);
    EXPECT_THROW(reg.histogram("mem.bank0.bytes"), sim::FatalError);
    reg.gauge("rate");
    EXPECT_THROW(reg.counter("rate"), sim::FatalError);
}

TEST(Metrics, FindDoesNotCreate)
{
    stats::MetricsRegistry reg;
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
    EXPECT_EQ(reg.size(), 0u);
    reg.counter("c").add(9);
    ASSERT_NE(reg.findCounter("c"), nullptr);
    EXPECT_EQ(reg.findCounter("c")->value(), 9u);
    EXPECT_EQ(reg.findGauge("c"), nullptr);  // wrong kind
}

TEST(Metrics, HistogramGrowsToItsLargestSample)
{
    stats::Histogram h;
    EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{0}));
    h.add(0);
    h.add(2);
    h.add(2);
    EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{1, 0, 2}));
    h.add(12);  // grows the buckets; nothing is clamped
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 16u);
    auto b = h.buckets();
    ASSERT_EQ(b.size(), 13u);
    EXPECT_EQ(b[12], 1u);
    h.addBucket(1, 5);
    h.addBucket(40, 0);  // an empty bucket does not grow the shape
    b = h.buckets();
    EXPECT_EQ(b.size(), 13u);
    EXPECT_EQ(b[1], 5u);
    EXPECT_EQ(h.count(), 9u);
}

TEST(Metrics, WriteJsonIsSortedAndTyped)
{
    stats::MetricsRegistry reg;
    reg.counter("b.count").add(2);
    reg.gauge("a.rate").set(1.5);
    reg.histogram("c.depth").add(3);
    stats::JsonWriter w;
    reg.writeJson(w);
    EXPECT_EQ(w.str(),
              "{\"a.rate\":1.5,\"b.count\":2,"
              "\"c.depth\":{\"count\":1,\"sum\":3,\"mean\":3,"
              "\"buckets\":[0,0,0,1]}}");
}

TEST(Metrics, ConcurrentAddsAndRegistrationsAreExact)
{
    // Exercised under TSan in CI: concurrent register-or-find plus
    // counter adds from many threads must be race-free and lose no
    // increments (the seed sweep's accumulation pattern).
    stats::MetricsRegistry reg;
    constexpr unsigned threads = 8;
    constexpr unsigned iters = 5000;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&reg] {
            for (unsigned i = 0; i < iters; ++i) {
                reg.counter("shared.count").increment();
                reg.histogram("shared.depth").add(i % 20);
                reg.counter("bytes").add(128);
            }
        });
    }
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(reg.findCounter("shared.count")->value(),
              std::uint64_t{threads} * iters);
    EXPECT_EQ(reg.findCounter("bytes")->value(),
              std::uint64_t{threads} * iters * 128);
    const stats::Histogram *depth = reg.findHistogram("shared.depth");
    EXPECT_EQ(depth->count(), std::uint64_t{threads} * iters);
    auto buckets = depth->buckets();
    ASSERT_EQ(buckets.size(), 20u);
    for (std::uint64_t b : buckets)
        EXPECT_EQ(b, std::uint64_t{threads} * iters / 20);
}

// --------------------------------------------------------------------
// JsonReport (the --json document)
// --------------------------------------------------------------------

TEST(JsonReport, GoldenSchema)
{
    util::Options opts("bench_x", "test bench");
    opts.addUint("runs", 10, "runs");
    opts.addDouble("ghz", 2.1, "clock");
    opts.addBool("quick", false, "quick");
    opts.addString("mode", "fast", "mode");
    opts.addBytes("buf", 4 * util::KiB, "buffer");

    core::JsonReport rep;
    rep.setBench("bench_x", "Figure 1", "a test");
    rep.setConfig(opts);
    stats::Table t({"spes", "GB/s"});
    t.addRow({"1", "9.87"});
    t.addRow({"8", "19.5"});
    rep.addTable("results", t);
    rep.metrics().counter("eib0.packets").add(512);

    EXPECT_EQ(rep.render(),
              "{\"schema\":\"cellbw-bench-v3\",\"schema_version\":3,"
              "\"bench\":\"bench_x\",\"experiment\":\"bench_x\","
              "\"figure\":\"Figure 1\",\"description\":\"a test\","
              "\"backend\":\"sim\",\"reproducible\":true,"
              "\"config\":{\"runs\":10,\"ghz\":2.1,\"quick\":false,"
              "\"mode\":\"fast\",\"buf\":4096},"
              "\"points\":["
              "{\"table\":\"results\",\"spes\":1,\"GB/s\":9.87},"
              "{\"table\":\"results\",\"spes\":8,\"GB/s\":19.5}],"
              "\"metrics\":{\"eib0.packets\":512}}");
}

TEST(JsonReport, V3EnvelopeFields)
{
    util::Options opts("bench_x", "test bench");
    opts.addUint("runs", 10, "runs");
    opts.addUint("jobs", 1, "worker threads");
    opts.setResultNeutral("jobs");

    core::JsonReport rep;
    rep.setBench("bench_x", "Figure 1", "a test");
    rep.setExperiment("fig_x");
    rep.setSuite("nightly");
    rep.setCacheInfo("salt-1", "deadbeef00000000");
    rep.setConfig(opts);
    std::string doc = rep.render();

    EXPECT_NE(doc.find("\"experiment\":\"fig_x\""), std::string::npos);
    EXPECT_NE(doc.find("\"suite\":\"nightly\""), std::string::npos);
    EXPECT_NE(doc.find("\"cache\":{\"salt\":\"salt-1\","
                       "\"key\":\"deadbeef00000000\"}"),
              std::string::npos);
    // Result-neutral options stay out of the config section so cached
    // reports replay bit-identically regardless of --jobs/--json.
    EXPECT_EQ(doc.find("\"jobs\""), std::string::npos);
    EXPECT_NE(doc.find("\"runs\":10"), std::string::npos);
    // v3: the backend defaults to sim/reproducible.
    EXPECT_NE(doc.find("\"backend\":\"sim\""), std::string::npos);
    EXPECT_NE(doc.find("\"reproducible\":true"), std::string::npos);
}

TEST(JsonReport, NativeBackendMarkedNonReproducible)
{
    core::JsonReport rep;
    rep.setBench("native_x", "Native S", "a measurement");
    rep.setBackend("native", false);
    std::string doc = rep.render();
    EXPECT_NE(doc.find("\"backend\":\"native\""), std::string::npos);
    EXPECT_NE(doc.find("\"reproducible\":false"), std::string::npos);
}

TEST(JsonReport, NonNumericCellsStayStrings)
{
    core::JsonReport rep;
    rep.setBench("b", "f", "d");
    stats::Table t({"elem", "n"});
    t.addRow({"16KiB", "4"});
    rep.addTable("results", t);
    std::string doc = rep.render();
    EXPECT_NE(doc.find("\"elem\":\"16KiB\""), std::string::npos);
    EXPECT_NE(doc.find("\"n\":4"), std::string::npos);
}
