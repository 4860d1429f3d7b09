#include "core/suite.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/experiment_registry.hh"
#include "core/result_cache.hh"
#include "core/worker_pool.hh"
#include "stats/json_writer.hh"
#include "util/file.hh"
#include "util/strings.hh"

namespace cellbw::core
{

namespace
{

struct ManifestEntry
{
    const Experiment *experiment = nullptr;
    std::vector<std::string> flags;
};

bool
resolveManifest(const std::string &manifest,
                std::vector<ManifestEntry> &entries, std::string &suiteId,
                std::string &err)
{
    auto &registry = ExperimentRegistry::instance();
    if (manifest == "ci") {
        // The built-in campaign: every registered sim experiment with
        // its default flags (callers narrow with forwarded flags like
        // --quick).  Native experiments are excluded by design: the
        // suite's warm-replay contract is byte-identical cache hits,
        // which measurements can never satisfy — run them explicitly
        // or through a manifest file.
        suiteId = "ci";
        for (const Experiment *e : registry.sorted()) {
            if (e->backend == Backend::Sim)
                entries.push_back({e, {}});
        }
        return true;
    }

    std::string text;
    if (!util::readFile(manifest, text)) {
        err = util::format(
            "cannot read manifest '%s' (not a file, and not a "
            "built-in manifest name)",
            manifest.c_str());
        return false;
    }
    suiteId = std::filesystem::path(manifest).stem().string();

    std::istringstream lines(text);
    std::string line;
    unsigned lineNo = 0;
    while (std::getline(lines, line)) {
        ++lineNo;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream tokens(line);
        std::string name;
        if (!(tokens >> name))
            continue;
        const Experiment *e = registry.find(name);
        if (!e) {
            err = util::format("%s:%u: unknown experiment '%s'",
                               manifest.c_str(), lineNo, name.c_str());
            return false;
        }
        ManifestEntry entry;
        entry.experiment = e;
        std::string flag;
        while (tokens >> flag)
            entry.flags.push_back(std::move(flag));
        entries.push_back(std::move(entry));
    }
    if (entries.empty()) {
        err = util::format("manifest '%s' selects no experiments",
                           manifest.c_str());
        return false;
    }
    return true;
}

/** What one experiment left behind, for suite.json and the summary. */
struct EntryResult
{
    std::string name;
    std::string key;
    std::string error;      // empty on success
    bool hit = false;
};

void
runEntry(const SuiteSpec &spec, const ManifestEntry &entry,
         ResultCache &cache, WorkerPool &pool, EntryResult &result,
         std::mutex &outMutex)
{
    const Experiment &e = *entry.experiment;
    result.name = e.name;
    const std::string reportName = e.name + ".json";
    const std::string outPath = spec.outDir + "/" + reportName;

    std::vector<std::string> args;
    args.push_back(e.name);                 // argv[0], skipped by parse
    for (const auto &f : entry.flags)
        args.push_back(f);
    for (const auto &f : spec.forward)
        args.push_back(f);
    args.push_back("--json");
    args.push_back(outPath);
    std::vector<const char *> argv;
    argv.reserve(args.size());
    for (const auto &a : args)
        argv.push_back(a.c_str());

    ExperimentContext ctx(e.name, e.description, e.backend);
    ctx.setQuiet(true);
    if (!ctx.parse(static_cast<int>(argv.size()), argv.data())) {
        result.error = "flag parse failed";
        return;
    }
    result.key = ctx.cacheKey();

    auto progress = [&](const std::string &line) {
        if (spec.terse)
            return;
        std::lock_guard<std::mutex> lock(outMutex);
        std::fputs(line.c_str(), stdout);
        std::fflush(stdout);
    };

    // Native measurements never hit or populate the cache.
    if (spec.useCache && backendIsCacheable(e.backend)) {
        if (auto stored = cache.load(ctx.cacheKey(),
                                     ctx.cacheMaterial())) {
            if (!util::writeFileAtomic(outPath, *stored)) {
                result.error = "cannot write " + outPath;
                return;
            }
            result.hit = true;
            progress(util::format("  [hit ] %-20s %s -> %s\n",
                                  e.name.c_str(),
                                  ctx.cacheKey().c_str(),
                                  reportName.c_str()));
            return;
        }
        ctx.attachCache(&cache);
    }

    ctx.par.pool = &pool;
    auto started = std::chrono::steady_clock::now();
    int rc = 1;
    try {
        rc = e.body(ctx);
    } catch (const std::exception &ex) {
        result.error = ex.what();
        return;
    }
    if (rc != 0) {
        result.error = util::format("exit code %d", rc);
        return;
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started)
                      .count();
    progress(util::format("  [run ] %-20s %s -> %s (%.1fs)\n",
                          e.name.c_str(), ctx.cacheKey().c_str(),
                          reportName.c_str(), secs));
}

/** The deterministic suite index: no timings, no hit/miss flags. */
std::string
renderSuiteIndex(const std::string &suiteId,
                 const std::vector<EntryResult> &results)
{
    stats::JsonWriter w;
    w.beginObject();
    w.key("schema").value("cellbw-suite-v1");
    w.key("suite").value(suiteId);
    w.key("salt").value(ResultCache::salt());
    w.key("experiments").beginArray();
    for (const auto &r : results) {
        w.beginObject();
        w.key("name").value(r.name);
        w.key("key").value(r.key);
        w.key("report").value(r.name + ".json");
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str() + "\n";
}

} // namespace

int
runSuite(const SuiteSpec &spec, SuiteOutcome *outcome)
{
    std::vector<ManifestEntry> entries;
    std::string suiteId, err;
    if (!resolveManifest(spec.manifest, entries, suiteId, err)) {
        std::fprintf(stderr, "cellbw suite: %s\n", err.c_str());
        return 2;
    }

    std::error_code ec;
    std::filesystem::create_directories(spec.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "cellbw suite: cannot create %s: %s\n",
                     spec.outDir.c_str(), ec.message().c_str());
        return 2;
    }

    ResultCache cache(spec.cacheDir);
    WorkerPool pool(spec.jobs);
    std::mutex outMutex;
    std::vector<EntryResult> results(entries.size());

    std::printf("suite %s: %zu experiments, %u pool workers, cache %s"
                "%s\n",
                suiteId.c_str(), entries.size(), pool.workers(),
                spec.cacheDir.c_str(),
                spec.useCache ? "" : " (disabled)");

    // One coordinator thread per experiment; all of them feed their
    // seed-sweep runs into the one shared pool, so work batches
    // across experiments.
    std::vector<std::thread> coordinators;
    coordinators.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        coordinators.emplace_back([&, i] {
            runEntry(spec, entries[i], cache, pool, results[i],
                     outMutex);
        });
    }
    for (auto &t : coordinators)
        t.join();

    SuiteOutcome counts;
    counts.selected = static_cast<unsigned>(entries.size());
    for (const auto &r : results) {
        if (!r.error.empty()) {
            ++counts.failures;
            std::fprintf(stderr, "cellbw suite: %s FAILED: %s\n",
                         r.name.c_str(), r.error.c_str());
        } else if (r.hit) {
            ++counts.cacheHits;
        } else {
            ++counts.ran;
        }
    }

    const std::string indexPath = spec.outDir + "/suite.json";
    if (!util::writeFileAtomic(indexPath,
                               renderSuiteIndex(suiteId, results))) {
        std::fprintf(stderr, "cellbw suite: cannot write %s\n",
                     indexPath.c_str());
        ++counts.failures;
    }

    if (spec.useCache && spec.cacheMaxBytes > 0) {
        auto pruned = cache.prune(spec.cacheMaxBytes);
        if (!spec.terse && pruned.evicted > 0)
            std::printf("suite %s: cache pruned %llu entries / %llu "
                        "bytes (budget %llu)\n",
                        suiteId.c_str(),
                        (unsigned long long)pruned.evicted,
                        (unsigned long long)pruned.evictedBytes,
                        (unsigned long long)spec.cacheMaxBytes);
    }

    std::printf("suite %s: cache hits: %u/%u, ran %u, failures %u; "
                "reports in %s\n",
                suiteId.c_str(), counts.cacheHits, counts.selected,
                counts.ran, counts.failures, spec.outDir.c_str());

    if (outcome)
        *outcome = counts;
    return counts.ok() ? 0 : 1;
}

} // namespace cellbw::core
