/**
 * @file
 * Output check: every report the benchmark produced against the
 * committed `baselines/<exp>.quick.json`.
 *
 * When the report's config equals the baseline's (the baselines are
 * recorded at --quick --seed 42), points must match at tolerance 0
 * (core::compareReportTexts) and the whole `metrics` object must be
 * equal as a util::JsonValue.  `cellbw compare --metrics` is not used:
 * it reports every histogram metric (an object, not a number) as
 * missing even when the bytes are identical.
 *
 * At any other seed the values legitimately differ, so the check falls
 * back to the report's shape — same config apart from the seed, same
 * tables, rows and columns, same label text up to its digits, same
 * metric names — and the digest it
 * prints lets a parent and a change be compared at that seed directly.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/compare.hh"
#include "core/result_cache.hh"
#include "harness.hh"
#include "stats/json_writer.hh"
#include "util/file.hh"
#include "util/json.hh"

namespace cellbw::bench
{

namespace
{

using util::JsonValue;

const JsonValue &
member(const JsonValue &doc, const char *key)
{
    static const JsonValue absent;
    const JsonValue *v = doc.find(key);
    return v ? *v : absent;
}

/** What a report claims: its experiment, points and metrics. */
std::string
digestOf(const JsonValue &doc)
{
    return core::ResultCache::hashKey(member(doc, "experiment").dump() +
                                      member(doc, "points").dump() +
                                      member(doc, "metrics").dump());
}

bool
sameConfigButSeed(const JsonValue &a, const JsonValue &b)
{
    if (!a.isObject() || !b.isObject() ||
        a.object().size() != b.object().size())
        return false;
    for (std::size_t i = 0; i < a.object().size(); ++i) {
        const auto &[ka, va] = a.object()[i];
        const auto &[kb, vb] = b.object()[i];
        if (ka != kb || (ka != "seed" && va != vb))
            return false;
    }
    return true;
}

std::string
firstDifferingMember(const JsonValue &a, const JsonValue &b)
{
    if (!a.isObject() || !b.isObject())
        return "(not an object)";
    for (const auto &[name, value] : b.object()) {
        const JsonValue *other = a.find(name);
        if (!other || *other != value)
            return name;
    }
    return a.object().size() != b.object().size() ? "(extra member)"
                                                  : "(order)";
}

/**
 * @p s with every run of digits (and the '.'/'-' inside it) replaced by
 * '#': labels such as "4KiB" keep their shape, while measured values
 * rendered as text ("62.3%") may change with the seed.
 */
std::string
numberless(const std::string &s)
{
    std::string out;
    for (std::size_t i = 0; i < s.size();) {
        if (std::isdigit(static_cast<unsigned char>(s[i]))) {
            while (i < s.size() &&
                   (std::isdigit(static_cast<unsigned char>(s[i])) ||
                    s[i] == '.' || s[i] == '-'))
                ++i;
            out += '#';
        } else {
            out += s[i++];
        }
    }
    return out;
}

/** Same tables, rows, columns and label shapes; numbers finite. */
void
checkShape(const JsonValue &doc, const JsonValue &base,
           std::vector<std::string> &problems)
{
    const JsonValue &pts = member(doc, "points");
    const JsonValue &bpts = member(base, "points");
    if (!pts.isArray() || !bpts.isArray() ||
        pts.array().size() != bpts.array().size()) {
        problems.push_back("point count differs from the baseline");
        return;
    }
    for (std::size_t i = 0; i < pts.array().size(); ++i) {
        const JsonValue &p = pts.array()[i];
        const JsonValue &b = bpts.array()[i];
        if (!p.isObject() || !b.isObject() ||
            p.object().size() != b.object().size()) {
            problems.push_back("point " + std::to_string(i) +
                               ": columns differ from the baseline");
            return;
        }
        for (std::size_t c = 0; c < p.object().size(); ++c) {
            const auto &[name, value] = p.object()[c];
            const auto &[bname, bvalue] = b.object()[c];
            bool ok = name == bname && value.kind() == bvalue.kind();
            if (ok && value.isString())
                ok = numberless(value.str()) == numberless(bvalue.str());
            if (ok && value.isNumber())
                ok = std::isfinite(value.number());
            if (!ok) {
                problems.push_back("point " + std::to_string(i) +
                                   ": column '" + bname +
                                   "' differs in kind or label");
                return;
            }
        }
    }
    const JsonValue &m = member(doc, "metrics");
    const JsonValue &bm = member(base, "metrics");
    bool sameNames = m.isObject() == bm.isObject();
    if (sameNames && m.isObject()) {
        sameNames = m.object().size() == bm.object().size();
        for (std::size_t i = 0; sameNames && i < m.object().size(); ++i)
            sameNames = m.object()[i].first == bm.object()[i].first;
    }
    if (!sameNames)
        problems.push_back("metric names differ from the baseline");
}

struct Verdict
{
    std::string experiment;
    std::string mode = "none";
    std::string digest;
    std::vector<std::string> problems;
};

Verdict
checkReport(const std::string &text, const std::string &baseText)
{
    Verdict v;
    JsonValue doc, base;
    std::string err;
    if (!JsonValue::parse(text, doc, err)) {
        v.problems.push_back("report does not parse: " + err);
        return v;
    }
    if (!JsonValue::parse(baseText, base, err)) {
        v.problems.push_back("baseline does not parse: " + err);
        return v;
    }
    v.experiment = doc.strOr("experiment", "?");
    v.digest = digestOf(doc);
    const JsonValue &config = member(doc, "config");
    const JsonValue &baseConfig = member(base, "config");
    if (config == baseConfig) {
        v.mode = "exact";
        core::ComparePolicy policy;     // tolerance 0, points only
        core::CompareResult result;
        if (!core::compareReportTexts(text, baseText, policy, result,
                                      err))
            v.problems.push_back(err);
        for (const auto &r : result.regressions)
            v.problems.push_back(r);
        const JsonValue &pts = member(doc, "points");
        const JsonValue &bpts = member(base, "points");
        if (!pts.isArray() || !bpts.isArray() ||
            pts.array().size() != bpts.array().size())
            v.problems.push_back("point count differs from the baseline");
        if (member(doc, "metrics") != member(base, "metrics")) {
            v.problems.push_back(
                "metric '" +
                firstDifferingMember(member(doc, "metrics"),
                                     member(base, "metrics")) +
                "' differs from the baseline");
        }
    } else if (sameConfigButSeed(config, baseConfig)) {
        v.mode = "shape";
        checkShape(doc, base, v.problems);
    } else {
        v.problems.push_back("config differs from the baseline beyond "
                             "--seed (first: '" +
                             firstDifferingMember(config, baseConfig) +
                             "')");
    }
    return v;
}

bool
isBenchReport(const std::string &text)
{
    return text.rfind("{\"schema\":\"cellbw-bench-v", 0) == 0;
}

JsonValue
withMember(const JsonValue &obj, const std::string &key, JsonValue repl)
{
    std::vector<JsonValue::Member> members = obj.object();
    for (auto &m : members) {
        if (m.first == key)
            m.second = repl;
    }
    return JsonValue::makeObject(std::move(members));
}

JsonValue
withElement(const JsonValue &arr, std::size_t i, JsonValue repl)
{
    std::vector<JsonValue> elems = arr.array();
    elems.at(i) = std::move(repl);
    return JsonValue::makeArray(std::move(elems));
}

/** @p point with its first numeric column raised by one. */
JsonValue
bumpFirstNumber(const JsonValue &point)
{
    for (const auto &[name, value] : point.object()) {
        if (value.isNumber())
            return withMember(point, name,
                              JsonValue::makeNumber(value.number() + 1));
    }
    throw std::runtime_error("point has no numeric column");
}

} // namespace

int
cmdCheck(const Args &args)
{
    if (args.positional().size() != 1 || !args.has("--baselines")) {
        std::fputs("usage: cellbw_bench check <dir> --baselines DIR "
                   "[--out FILE]\n", stderr);
        return 2;
    }
    namespace fs = std::filesystem;
    const std::string baselines = args.get("--baselines");
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(args.positional()[0])) {
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());

    stats::JsonWriter w;
    w.beginObject();
    w.key("reports").beginArray();
    unsigned checked = 0, failed = 0;
    for (const auto &path : files) {
        std::string text, baseText;
        if (!util::readFile(path.string(), text) || !isBenchReport(text))
            continue;
        Verdict v;
        JsonValue doc;
        std::string err;
        std::string exp = JsonValue::parse(text, doc, err)
                              ? doc.strOr("experiment", "")
                              : path.stem().string();
        if (!util::readFile(baselines + "/" + exp + ".quick.json",
                            baseText)) {
            v.experiment = exp;
            v.problems.push_back("no baseline " + baselines + "/" + exp +
                                 ".quick.json");
        } else {
            v = checkReport(text, baseText);
        }
        ++checked;
        failed += v.problems.empty() ? 0 : 1;
        std::printf("report %-20s %-4s %-5s %s\n", v.experiment.c_str(),
                    v.problems.empty() ? "ok" : "FAIL", v.mode.c_str(),
                    v.digest.c_str());
        for (const auto &p : v.problems)
            std::printf("  problem: %s\n", p.c_str());
        w.beginObject();
        w.key("experiment").value(v.experiment);
        w.key("mode").value(v.mode);
        w.key("digest").value(v.digest);
        w.key("problems").beginArray();
        for (const auto &p : v.problems)
            w.value(p);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("checked").value(checked);
    w.key("failed").value(failed);
    w.endObject();
    if (args.has("--out") && !writeOut(args.get("--out"), w.str() + "\n"))
        return 2;
    return failed == 0 && checked > 0 ? 0 : 1;
}

int
cmdSelftest(const Args &args)
{
    const std::string path =
        args.get("--baselines", "baselines") + "/fig08_spe_mem.quick.json";
    std::string text;
    if (!util::readFile(path, text)) {
        std::fprintf(stderr, "selftest: cannot read %s\n", path.c_str());
        return 2;
    }
    JsonValue doc;
    std::string err;
    if (!JsonValue::parse(text, doc, err))
        throw std::runtime_error(path + ": " + err);

    const JsonValue &points = member(doc, "points");
    JsonValue flippedPoint = withMember(
        doc, "points",
        withElement(points, 0, bumpFirstNumber(points.array().at(0))));

    const JsonValue &metrics = member(doc, "metrics");
    std::string histogram;
    for (const auto &[name, value] : metrics.object()) {
        if (value.isObject() && value.find("buckets")) {
            histogram = name;
            break;
        }
    }
    if (histogram.empty())
        throw std::runtime_error(path + " has no histogram metric");
    const JsonValue &hist = *metrics.find(histogram);
    const JsonValue &buckets = *hist.find("buckets");
    JsonValue flippedBucket = withMember(
        doc, "metrics",
        withMember(metrics, histogram,
                   withMember(hist, "buckets",
                              withElement(buckets, 0,
                                          JsonValue::makeNumber(
                                              buckets.array().at(0)
                                                  .number() + 1)))));
    JsonValue otherSeed = withMember(
        doc, "config",
        withMember(member(doc, "config"), "seed",
                   JsonValue::makeNumber(7)));

    struct Case
    {
        std::string name;
        std::string text;
        bool expectOk;
    };
    const Case cases[] = {
        {"baseline against itself", text, true},
        {"one point value flipped", flippedPoint.dump(), false},
        {"one histogram bucket flipped (" + histogram + ")",
         flippedBucket.dump(), false},
        {"another seed, same shape", otherSeed.dump(), true},
    };
    int bad = 0;
    for (const auto &c : cases) {
        Verdict v = checkReport(c.text, text);
        bool ok = v.problems.empty();
        bool pass = ok == c.expectOk;
        bad += pass ? 0 : 1;
        std::printf("selftest %-4s %s: check says %s (%s)%s%s\n",
                    pass ? "ok" : "FAIL", c.name.c_str(),
                    ok ? "ok" : "FAIL", v.mode.c_str(),
                    v.problems.empty() ? "" : " - ",
                    v.problems.empty() ? "" : v.problems[0].c_str());
    }
    return bad == 0 ? 0 : 1;
}

} // namespace cellbw::bench
