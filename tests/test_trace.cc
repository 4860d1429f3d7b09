/** @file Tests for the trace recorder and its system hookup. */

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>

#include "cell/cell_system.hh"
#include "test_util.hh"
#include "trace/recorder.hh"

using namespace cellbw;

TEST(Recorder, StoresAndClearsRecords)
{
    trace::Recorder rec;
    rec.dma({10, 20, 100, 0, spe::DmaDir::Get, 3, 1024, false, false});
    rec.eib({10, 15, 40, 0, 2, 11, 10, 128});
    EXPECT_EQ(rec.dmaRecords().size(), 1u);
    EXPECT_EQ(rec.eibRecords().size(), 1u);
    rec.clear();
    EXPECT_TRUE(rec.dmaRecords().empty());
    EXPECT_TRUE(rec.eibRecords().empty());
}

TEST(Recorder, TimelineShowsLanesAndMarks)
{
    trace::Recorder rec;
    rec.dma({0, 10, 500, 0, spe::DmaDir::Get, 0, 1024, false, false});
    rec.dma({100, 150, 900, 1, spe::DmaDir::Put, 1, 1024, false, false});
    std::string tl = rec.renderDmaTimeline(40);
    EXPECT_NE(tl.find("spe0"), std::string::npos);
    EXPECT_NE(tl.find("spe1"), std::string::npos);
    EXPECT_NE(tl.find('G'), std::string::npos);
    EXPECT_NE(tl.find('P'), std::string::npos);
}

TEST(Recorder, EmptyTimelineIsGraceful)
{
    trace::Recorder rec;
    EXPECT_NE(rec.renderDmaTimeline().find("no DMA records"),
              std::string::npos);
}

TEST(Tracing, SystemHookupCapturesARealRun)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    auto &rec = sys.enableTracing();

    EffAddr buf = sys.malloc(64 * 1024);
    auto prog_fn = [&]() -> sim::Task {
        auto &s = sys.spe(0);
        for (unsigned off = 0; off < 64 * 1024; off += 16 * 1024) {
            co_await s.mfc().queueSpace();
            s.mfc().get(off, buf + off, 16 * 1024, 2);
        }
        co_await s.mfc().tagWait(1u << 2);
    };
    sys.launch(prog_fn());
    sys.run();

    ASSERT_EQ(rec.dmaRecords().size(), 4u);
    for (const auto &r : rec.dmaRecords()) {
        EXPECT_EQ(r.spe, 0u);
        EXPECT_EQ(r.tag, 2u);
        EXPECT_EQ(r.bytes, 16u * 1024u);
        EXPECT_LE(r.enqueued, r.issued);
        EXPECT_LT(r.issued, r.completed);
    }
    // 64 KiB = 512 lines over the ring.
    EXPECT_EQ(rec.eibRecords().size(), 512u);
    for (const auto &r : rec.eibRecords()) {
        EXPECT_LE(r.requested, r.granted);
        EXPECT_LT(r.granted, r.delivered);
        EXPECT_LT(r.ring, 4u);
    }
    EXPECT_NE(rec.renderDmaTimeline().find("spe0"), std::string::npos);
}

TEST(Tracing, EnableTracingIsIdempotent)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    auto &a = sys.enableTracing();
    auto &b = sys.enableTracing();
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(sys.recorder(), &a);
}

TEST(Tracing, OffByDefault)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    EXPECT_EQ(sys.recorder(), nullptr);
}

TEST(Recorder, TimelineSurvivesDegenerateWidths)
{
    // Regression: width < 2 used to divide by zero / index past the
    // lane buffer.  Any requested width must render.
    trace::Recorder rec;
    rec.dma({0, 10, 500, 0, spe::DmaDir::Get, 0, 1024, false, false});
    for (int w : {0, 1, -5, 2}) {
        std::string tl = rec.renderDmaTimeline(w);
        EXPECT_NE(tl.find("spe0"), std::string::npos) << "width " << w;
    }
}

TEST(Recorder, CapacityBoundsBuffersAndCountsDrops)
{
    trace::Recorder rec;
    rec.setCapacity(4);
    for (Tick t = 0; t < 20; ++t) {
        rec.dma({t, t + 1, t + 2, 0, spe::DmaDir::Get, 0, 128, false,
                 false});
        rec.eib({t, t + 1, t + 2, 0, 0, 1, 2, 128});
    }
    // Amortized eviction: never more than twice the capacity retained.
    EXPECT_LE(rec.dmaRecords().size(), 8u);
    EXPECT_LE(rec.eibRecords().size(), 8u);
    EXPECT_EQ(rec.dmaRecords().size() + rec.dmaDropped(), 20u);
    EXPECT_EQ(rec.eibRecords().size() + rec.eibDropped(), 20u);
    // The newest record survives; retained order stays chronological.
    EXPECT_EQ(rec.dmaRecords().back().enqueued, 19u);
    for (std::size_t i = 1; i < rec.dmaRecords().size(); ++i) {
        EXPECT_LT(rec.dmaRecords()[i - 1].enqueued,
                  rec.dmaRecords()[i].enqueued);
    }
    // Shrinking the bound trims immediately.
    rec.setCapacity(2);
    EXPECT_LE(rec.dmaRecords().size(), 2u);
    rec.clear();
    EXPECT_EQ(rec.dmaDropped(), 0u);
    EXPECT_TRUE(rec.dmaRecords().empty());
}

TEST(Recorder, UnboundedByDefault)
{
    trace::Recorder rec;
    for (Tick t = 0; t < 1000; ++t)
        rec.dma({t, t, t + 1, 0, spe::DmaDir::Get, 0, 128, false,
                 false});
    EXPECT_EQ(rec.dmaRecords().size(), 1000u);
    EXPECT_EQ(rec.dmaDropped(), 0u);
}

namespace
{

/**
 * Minimal JSON syntax checker, enough to prove chromeTrace() emits a
 * well-formed document without an external parser.  Returns the
 * position after the value, or std::string::npos on a syntax error.
 */
std::size_t
skipWs(const std::string &s, std::size_t i)
{
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r'))
        ++i;
    return i;
}

std::size_t jsonValue(const std::string &s, std::size_t i);

std::size_t
jsonString(const std::string &s, std::size_t i)
{
    if (i >= s.size() || s[i] != '"')
        return std::string::npos;
    for (++i; i < s.size(); ++i) {
        if (s[i] == '\\') {
            ++i;
            continue;
        }
        if (s[i] == '"')
            return i + 1;
    }
    return std::string::npos;
}

std::size_t
jsonValue(const std::string &s, std::size_t i)
{
    i = skipWs(s, i);
    if (i >= s.size())
        return std::string::npos;
    if (s[i] == '"')
        return jsonString(s, i);
    if (s[i] == '{' || s[i] == '[') {
        const char close = s[i] == '{' ? '}' : ']';
        const bool isObject = s[i] == '{';
        i = skipWs(s, i + 1);
        if (i < s.size() && s[i] == close)
            return i + 1;
        for (;;) {
            if (isObject) {
                i = jsonString(s, skipWs(s, i));
                if (i == std::string::npos)
                    return i;
                i = skipWs(s, i);
                if (i >= s.size() || s[i] != ':')
                    return std::string::npos;
                ++i;
            }
            i = jsonValue(s, i);
            if (i == std::string::npos)
                return i;
            i = skipWs(s, i);
            if (i < s.size() && s[i] == ',') {
                i = skipWs(s, i + 1);
                continue;
            }
            if (i < s.size() && s[i] == close)
                return i + 1;
            return std::string::npos;
        }
    }
    // Literal: number / true / false / null.
    std::size_t j = i;
    while (j < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[j])) || s[j] == '-' ||
            s[j] == '+' || s[j] == '.'))
        ++j;
    return j > i ? j : std::string::npos;
}

bool
isValidJson(const std::string &s)
{
    std::size_t end = jsonValue(s, 0);
    return end != std::string::npos && skipWs(s, end) == s.size();
}

/** Count non-overlapping occurrences of @p needle. */
std::size_t
countOf(const std::string &s, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = s.find(needle); pos != std::string::npos;
         pos = s.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

TEST(Recorder, ChromeTraceIsValidJsonWithPairedEvents)
{
    trace::Recorder rec;
    rec.dma({0, 10, 500, 0, spe::DmaDir::Get, 2, 1024, false, false});
    rec.dma({5, 60, 700, 1, spe::DmaDir::Put, 3, 2048, true, true});
    rec.eib({1, 2, 9, 0, 1, 4, 7, 128});
    std::string json = rec.chromeTrace(1.0);

    ASSERT_TRUE(isValidJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    // Every async begin has a matching end (same count, per category).
    EXPECT_EQ(countOf(json, "\"ph\":\"b\""), 3u);
    EXPECT_EQ(countOf(json, "\"ph\":\"e\""), 3u);
    EXPECT_EQ(countOf(json, "\"cat\":\"dma\""), 4u);  // 2 cmds x b+e
    EXPECT_EQ(countOf(json, "\"cat\":\"eib\""), 2u);
    // Command details travel in args.
    EXPECT_NE(json.find("\"tag\":2"), std::string::npos);
    EXPECT_NE(json.find("\"bytes\":1024"), std::string::npos);
    EXPECT_NE(json.find("ramp4->ramp7"), std::string::npos);
    // Metadata names the processes for the trace viewer.
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

TEST(Recorder, ChromeTraceOfEmptyTraceIsValid)
{
    trace::Recorder rec;
    std::string json = rec.chromeTrace(1.0);
    EXPECT_TRUE(isValidJson(json)) << json;
    // Only metadata events; no begin/end pairs and no drop report.
    EXPECT_EQ(countOf(json, "\"ph\":\"b\""), 0u);
    EXPECT_EQ(countOf(json, "\"ph\":\"e\""), 0u);
    EXPECT_EQ(json.find("\"dropped\""), std::string::npos);
}

TEST(Recorder, ChromeTraceReportsDrops)
{
    trace::Recorder rec;
    rec.setCapacity(1);
    for (Tick t = 0; t < 5; ++t)
        rec.dma({t, t, t + 1, 0, spe::DmaDir::Get, 0, 128, false,
                 false});
    std::string json = rec.chromeTrace(1.0);
    EXPECT_TRUE(isValidJson(json)) << json;
    EXPECT_NE(json.find("\"dropped\""), std::string::npos);
}
