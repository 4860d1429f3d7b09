/**
 * @file
 * The traced run's in-process half: replays of a workload's
 * experiments and probes of single layers.
 *
 * replay runs a list of experiment invocations the way the product
 * does, with a span around each layer call:
 *
 *   --path pool  runSuite's per-experiment sequence: ExperimentContext,
 *                parse, ResultCache::load (a fresh cache: a miss), then
 *                Experiment::body with the report stored into the cache;
 *                one coordinator thread per experiment over one shared
 *                WorkerPool(4)
 *   --path run   runExperimentCli's sequence, one experiment after the
 *                other, each seed sweep on its own per-call threads
 *
 * --profile appends --sim-profile, and the per-tag dispatch counters
 * the simulator books into each report (profile.<tag>.events/self_ns)
 * are summed over the reports.  run.py runs each list once plain and
 * once profiled; the wall-time ratio is the tracing overhead.
 *
 * probes times public calls of one layer at a time: event-queue
 * dispatch on a fresh vs a reused thread, CellSystem construction,
 * core::repeatRuns at several widths, core::runClusterHalo at several
 * chip counts and --sim-jobs, ResultCache load/store, util::JsonValue
 * parse, a warm core::runValidate, serve::parseHttpRequest and
 * serve::Server::route.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cell/cell_system.hh"
#include "core/experiment_registry.hh"
#include "core/experiments.hh"
#include "core/halo.hh"
#include "core/result_cache.hh"
#include "core/runner.hh"
#include "core/validate.hh"
#include "core/worker_pool.hh"
#include "harness.hh"
#include "serve/connection.hh"
#include "serve/server.hh"
#include "sim/event_queue.hh"
#include "stats/json_writer.hh"
#include "util/file.hh"
#include "util/json.hh"

namespace cellbw::bench
{

namespace
{

namespace fs = std::filesystem;

/** The tags the simulator books today (none add Program/Ppe/Other). */
const char *const kProfileTags[] = {"mfc", "eib", "dram", "iolink"};

struct Entry
{
    const core::Experiment *experiment = nullptr;
    std::vector<std::string> flags;
};

std::vector<Entry>
readList(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Entry> entries;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream tokens(line);
        std::string name, flag;
        if (!(tokens >> name))
            continue;
        Entry e;
        e.experiment = core::ExperimentRegistry::instance().find(name);
        if (!e.experiment)
            throw std::runtime_error("unknown experiment " + name);
        while (tokens >> flag)
            e.flags.push_back(flag);
        entries.push_back(std::move(e));
    }
    return entries;
}

struct Outcome
{
    double seconds = 0;
    std::string error;
};

void
replayOne(const Entry &entry, const std::string &reportPath,
          bool profile, core::ResultCache *cache, core::WorkerPool *pool,
          SpanLog &spans, Outcome &out)
{
    const core::Experiment &e = *entry.experiment;
    const int span = spans.begin("experiment:" + e.name);
    std::vector<std::string> args{e.name};
    args.insert(args.end(), entry.flags.begin(), entry.flags.end());
    args.push_back("--json");
    args.push_back(reportPath);
    if (profile)
        args.push_back("--sim-profile");
    std::vector<const char *> argv;
    for (const auto &a : args)
        argv.push_back(a.c_str());

    core::ExperimentContext ctx(e.name, e.description, e.backend);
    ctx.setQuiet(true);
    int s = spans.begin("parse", span);
    bool parsed = ctx.parse(static_cast<int>(argv.size()), argv.data());
    spans.end(s);
    if (!parsed) {
        out.error = "flag parse failed";
        spans.end(span);
        return;
    }
    if (cache) {
        ctx.setSuite("benchmark");
        s = spans.begin("cache.load", span);
        bool hit = cache->load(ctx.cacheKey(), ctx.cacheMaterial())
                       .has_value();
        spans.end(s);
        if (hit) {
            out.error = "unexpected hit in a fresh cache";
            spans.end(span);
            return;
        }
        ctx.attachCache(cache);
        ctx.par.pool = pool;
    }
    s = spans.begin("body", span);
    try {
        int rc = e.body(ctx);
        if (rc != 0)
            out.error = "exit code " + std::to_string(rc);
    } catch (const std::exception &ex) {
        out.error = ex.what();
    }
    spans.end(s);
    spans.end(span);
    out.seconds = spans.seconds(span);
}

/** Median wall seconds of @p reps calls of @p fn, under one span. */
double
timeMedian(SpanLog &spans, const std::string &name, unsigned reps,
           const std::function<void()> &fn)
{
    const int span = spans.begin("probe:" + name);
    std::vector<double> secs;
    for (unsigned i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        fn();
        secs.push_back(secondsSince(t0));
    }
    spans.end(span);
    return median(secs);
}

std::atomic<long> g_sink{0};

/** Schedule and run 1024 events; @return the seconds it took. */
double
queueBurst()
{
    auto t0 = Clock::now();
    {
        sim::EventQueue eq;
        long sum = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<Tick>(i % 97), [&sum, i] { sum += i; });
        eq.run();
        g_sink.fetch_add(sum, std::memory_order_relaxed);
    }
    return secondsSince(t0);
}

/** The cache key and material `cellbw` derives for @p args. */
std::pair<std::string, std::string>
cacheIdentity(const std::string &experiment,
              const std::vector<std::string> &flags)
{
    const core::Experiment *e =
        core::ExperimentRegistry::instance().find(experiment);
    if (!e)
        throw std::runtime_error("unknown experiment " + experiment);
    core::ExperimentContext ctx(e->name, e->description, e->backend);
    ctx.setQuiet(true);
    std::vector<std::string> args{experiment};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<const char *> argv;
    for (const auto &a : args)
        argv.push_back(a.c_str());
    if (!ctx.parse(static_cast<int>(argv.size()), argv.data()))
        throw std::runtime_error("cannot parse flags for " + experiment);
    return {ctx.cacheKey(), ctx.cacheMaterial()};
}

std::string
readBaseline(const std::string &dir, const std::string &experiment)
{
    std::string text;
    if (!util::readFile(dir + "/" + experiment + ".quick.json", text))
        throw std::runtime_error("cannot read baseline of " + experiment);
    return text;
}

/** A cache holding the committed --quick baseline of each experiment. */
void
seedCache(const core::ResultCache &cache, const std::string &baselines,
          const std::vector<std::string> &experiments)
{
    for (const auto &name : experiments) {
        auto [key, material] = cacheIdentity(name, {"--quick"});
        if (!cache.store(key, material, readBaseline(baselines, name)))
            throw std::runtime_error("cannot seed cache with " + name);
    }
}

std::string
runRequestBody(const std::string &experiment)
{
    return "{\"experiment\":\"" + experiment +
           "\",\"args\":[\"--quick\"],\"wait\":true}";
}

} // namespace

int
cmdReplay(const Args &args)
{
    const std::string path = args.get("--path");
    const std::string work = args.get("--work");
    if ((path != "pool" && path != "run") || !args.has("--list") ||
        work.empty() || !args.has("--out")) {
        std::fputs("usage: cellbw_bench replay --path pool|run --list FILE "
                   "--work DIR --out FILE [--profile] [--spans FILE]\n",
                   stderr);
        return 2;
    }
    const bool profile = args.has("--profile");
    const auto entries = readList(args.get("--list"));
    SpanLog spans(args.get("--workload", "replay"));
    fs::create_directories(work + "/reports");

    std::vector<Outcome> outcomes(entries.size());
    auto report = [&](std::size_t i) {
        return work + "/reports/" + entries[i].experiment->name + ".json";
    };
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    const int top = spans.begin(std::string("replay:") + path +
                                (profile ? ":profiled" : ":plain"));
    if (path == "pool") {
        core::ResultCache cache(work + "/cache");
        core::WorkerPool pool(4);
        std::vector<std::thread> coordinators;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            coordinators.emplace_back([&, i] {
                replayOne(entries[i], report(i), profile, &cache, &pool,
                          spans, outcomes[i]);
            });
        }
        for (auto &t : coordinators)
            t.join();
    } else {
        for (std::size_t i = 0; i < entries.size(); ++i)
            replayOne(entries[i], report(i), profile, nullptr, nullptr,
                      spans, outcomes[i]);
    }
    spans.end(top);
    const double wall = secondsSince(t0);
    const double cpu = processCpuSeconds() - cpu0;

    // Sum the dispatch profile the simulator booked into each report.
    std::map<std::string, std::pair<double, double>> tags;
    for (const char *tag : kProfileTags)
        tags[tag] = {0.0, 0.0};
    unsigned failed = 0;
    stats::JsonWriter w;
    w.beginObject();
    w.key("experiments").beginArray();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        std::string text;
        util::JsonValue doc;
        std::string err;
        if (outcomes[i].error.empty() &&
            (!util::readFile(report(i), text) ||
             !util::JsonValue::parse(text, doc, err)))
            outcomes[i].error = "cannot read report " + report(i);
        if (!outcomes[i].error.empty()) {
            ++failed;
            std::fprintf(stderr, "replay: %s: %s\n",
                         entries[i].experiment->name.c_str(),
                         outcomes[i].error.c_str());
        }
        const util::JsonValue *metrics = doc.find("metrics");
        for (auto &[tag, sums] : tags) {
            for (int k = 0; k < 2; ++k) {
                const util::JsonValue *v =
                    metrics ? metrics->find("profile." + tag +
                                            (k ? ".self_ns" : ".events"))
                            : nullptr;
                if (v && v->isNumber())
                    (k ? sums.second : sums.first) += v->number();
            }
        }
        w.beginObject();
        w.key("name").value(entries[i].experiment->name);
        w.key("s").value(outcomes[i].seconds);
        w.key("error").value(outcomes[i].error);
        w.endObject();
    }
    w.endArray();
    w.key("wall_s").value(wall);
    w.key("cpu_s").value(cpu);
    w.key("failed").value(failed);
    w.key("profile").beginObject();
    for (const auto &[tag, sums] : tags) {
        w.key(tag).beginObject();
        w.key("events").value(sums.first);
        w.key("self_s").value(sums.second / 1e9);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    if (!writeOut(args.get("--out"), w.str() + "\n"))
        return 2;
    if (args.has("--spans") && !spans.write(args.get("--spans")))
        return 2;
    return failed == 0 ? 0 : 1;
}

int
cmdProbes(const Args &args)
{
    const std::string work = args.get("--work");
    const std::string baselines = args.get("--baselines");
    const auto validateTargets = args.getList("--validate-targets");
    const auto hitSet = args.getList("--hits");
    if (work.empty() || baselines.empty() || !args.has("--paper") ||
        validateTargets.empty() || hitSet.empty() || !args.has("--out")) {
        std::fputs("usage: cellbw_bench probes --work DIR --baselines DIR "
                   "--paper DIR --validate-targets A,B --hits A,B "
                   "--out FILE [--seed N] [--quick] [--spans FILE]\n",
                   stderr);
        return 2;
    }
    const std::uint64_t seed = args.getUint("--seed", 42);
    const bool quick = args.has("--quick");
    const unsigned reps = quick ? 3 : 15;
    SpanLog spans(args.get("--workload", "probes"));
    MetricSet m;
    std::vector<std::string> failures;
    fs::remove_all(work);
    fs::create_directories(work);

    // sim: 1024 events on a thread that has never run a queue (its
    // chunk pool is empty) vs one that has.
    {
        std::vector<double> fresh, reused;
        const int span = spans.begin("probe:sim.queue");
        for (unsigned i = 0; i < 4 * reps; ++i) {
            std::thread t([&] { fresh.push_back(queueBurst()); });
            t.join();
        }
        std::thread t([&] {
            queueBurst();
            for (unsigned i = 0; i < 4 * reps; ++i)
                reused.push_back(queueBurst());
        });
        t.join();
        spans.end(span);
        m.set("sim.queue_fresh_thread_us", median(fresh) * 1e6, "us");
        m.set("sim.queue_reused_thread_us", median(reused) * 1e6, "us");
    }

    // cell: CellSystem constructor + destructor.
    for (unsigned chips : {1u, 8u}) {
        cell::CellConfig cfg;
        cfg.numChips = chips;
        cfg.numSpes = 8 * chips;
        cfg.affinity = cell::AffinityPolicy::Linear;
        double s = timeMedian(spans, "cell.build" + std::to_string(chips),
                              reps, [&] { cell::CellSystem sys(cfg, seed); });
        m.set("cell.build" + std::to_string(chips) + "_us", s * 1e6, "us");
    }

    // core runner: the 10-seed 8-SPE couples sweep at several widths;
    // every width must give the identical distribution.
    {
        cell::CellConfig cfg;
        core::RepeatSpec spec;
        spec.seed = seed;
        auto body = [](cell::CellSystem &sys) {
            core::SpeSpeConfig sc;
            sc.numSpes = 8;
            sc.elemBytes = 4096;
            sc.bytesPerStream = 1 * util::MiB;
            return core::runSpeSpe(sys, sc);
        };
        core::WorkerPool pool(4);
        const std::pair<const char *, core::ParallelSpec> widths[] = {
            {"jobs1", core::ParallelSpec{1}},
            {"jobs2", core::ParallelSpec{2}},
            {"jobs4", core::ParallelSpec{4}},
            {"pool4", core::ParallelSpec{0, &pool}},
        };
        std::map<std::string, std::vector<double>> ms;
        std::vector<double> means;
        const int span = spans.begin("probe:runner.sweep");
        for (unsigned r = 0; r < (quick ? 1u : 3u); ++r) {
            for (const auto &[name, par] : widths) {
                auto t0 = Clock::now();
                auto d = core::repeatRuns(cfg, spec, body, par);
                ms[name].push_back(secondsSince(t0) * 1e3);
                means.push_back(d.mean());
            }
        }
        spans.end(span);
        if (std::adjacent_find(means.begin(), means.end(),
                               std::not_equal_to<>()) != means.end())
            failures.push_back("runner sweep differs across widths");
        for (const auto &[name, par] : widths)
            m.set(std::string("runner.sweep_ms.") + name, median(ms[name]),
                  "ms");
    }

    // sim/parallel through core::runClusterHalo: two stencil steps per
    // rank (half the --quick size) keeps the six points near 3 s.
    for (unsigned chips : {2u, 4u, 8u}) {
        for (unsigned simJobs : {1u, 4u}) {
            cell::CellConfig cfg;
            cfg.numChips = chips;
            cfg.numSpes = 8 * chips;
            cfg.affinity = cell::AffinityPolicy::Linear;
            cfg.simJobs = simJobs;
            core::HaloConfig hc;
            hc.bytesPerSpe = 512 * util::KiB;
            const std::string name = "halo.c" + std::to_string(chips) +
                                     ".sj" + std::to_string(simJobs);
            double s = timeMedian(spans, name, quick ? 1 : 2, [&] {
                cell::CellSystem sys(cfg, seed);
                core::runClusterHalo(sys, hc);
            });
            m.set(name + "_s", s, "s");
        }
    }

    // core cache: load hit / miss and store of a fig08-sized report.
    const std::string fig08 = readBaseline(baselines, "fig08_spe_mem");
    {
        core::ResultCache cache(work + "/cache");
        auto [key, material] = cacheIdentity("fig08_spe_mem", {"--quick"});
        if (!cache.store(key, material, fig08))
            failures.push_back("cache store failed");
        unsigned n = 0;
        double store = timeMedian(spans, "cache.store", 10 * reps, [&] {
            std::string mat = material + "\nprobe=" + std::to_string(n++);
            if (!cache.store(core::ResultCache::hashKey(mat), mat, fig08))
                failures.push_back("cache store failed");
        });
        double hit = timeMedian(spans, "cache.load_hit", 10 * reps, [&] {
            if (!cache.load(key, material))
                failures.push_back("cache hit missed");
        });
        double miss = timeMedian(spans, "cache.load_miss", 10 * reps, [&] {
            if (cache.load(core::ResultCache::hashKey("absent"), "absent"))
                failures.push_back("cache miss hit");
        });
        m.set("cache.load_hit_us", hit * 1e6, "us");
        m.set("cache.load_miss_us", miss * 1e6, "us");
        m.set("cache.store_us", store * 1e6, "us");
    }

    // util/json: parse the fig08 report.
    {
        double s = timeMedian(spans, "json.parse", 10 * reps, [&] {
            util::JsonValue doc;
            std::string err;
            if (!util::JsonValue::parse(fig08, doc, err))
                failures.push_back("fig08 baseline does not parse");
        });
        m.set("json.parse_us", s * 1e6, "us");
    }

    // validate: warm core::runValidate over a cache of the baselines.
    {
        core::ResultCache cache(work + "/validate-cache");
        seedCache(cache, baselines, validateTargets);
        core::ValidateSpec spec;
        spec.targets = validateTargets;
        spec.baselineDir = args.get("--paper");
        spec.outDir = work + "/validate-out";
        spec.cacheDir = cache.root();
        spec.jobs = 4;
        spec.forward = {"--quick"};
        spec.terse = true;
        double s = timeMedian(spans, "validate", reps, [&] {
            if (core::runValidate(spec) != 0)
                failures.push_back("warm validate over the baselines "
                                   "did not pass");
        });
        m.set("validate.ms", s * 1e3, "ms");
    }

    // serve: HTTP parse and in-process route (no sockets).
    {
        const std::string body = runRequestBody(hitSet.front());
        const std::string request =
            "POST /run HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) +
            "\r\nConnection: close\r\n\r\n" + body;
        constexpr unsigned kBatch = 100;
        double s = timeMedian(spans, "serve.http_parse", 2 * reps, [&] {
            for (unsigned i = 0; i < kBatch; ++i) {
                serve::HttpRequest req;
                std::size_t used = 0;
                if (serve::parseHttpRequest(request, req, used) !=
                    serve::ParseStatus::Ok)
                    failures.push_back("HTTP request did not parse");
            }
        });
        m.set("serve.http_parse_us", s * 1e6 / kBatch, "us");

        serve::ServeSpec spec;
        spec.cacheDir = work + "/serve-cache";
        spec.spoolDir = work + "/serve-spool";
        spec.jobs = 1;
        spec.terse = true;
        seedCache(core::ResultCache(spec.cacheDir), baselines, hitSet);
        serve::Server server(spec);
        // A miss would block on a runner this server never starts, so
        // every hit-set entry is confirmed present first.
        for (const auto &name : hitSet) {
            auto [key, material] = cacheIdentity(name, {"--quick"});
            if (!core::ResultCache(spec.cacheDir).load(key, material))
                throw std::runtime_error("seeded cache lacks " + name);
        }
        auto route = [&](const std::string &reqBody, int want) {
            serve::HttpRequest req;
            req.method = "POST";
            req.target = "/run";
            req.version = "HTTP/1.1";
            req.body = reqBody;
            if (server.route(req, "probe").status != want)
                failures.push_back("route gave an unexpected status");
        };
        unsigned k = 0;
        double hit = timeMedian(spans, "serve.route_hit", 10 * reps, [&] {
            route(runRequestBody(hitSet[k++ % hitSet.size()]), 200);
        });
        double miss404 = timeMedian(spans, "serve.route_404", 10 * reps, [&] {
            route(runRequestBody("no_such_experiment"), 404);
        });
        m.set("serve.route_hit_us", hit * 1e6, "us");
        m.set("serve.route_404_us", miss404 * 1e6, "us");
    }

    for (const auto &f : failures)
        std::fprintf(stderr, "probes: %s\n", f.c_str());
    stats::JsonWriter w;
    w.beginObject();
    w.key("failed").value(static_cast<std::uint64_t>(failures.size()));
    w.key("metrics").raw(m.json());
    w.endObject();
    if (!writeOut(args.get("--out"), w.str() + "\n"))
        return 2;
    if (args.has("--spans") && !spans.write(args.get("--spans")))
        return 2;
    return failures.empty() ? 0 : 1;
}

} // namespace cellbw::bench
