#include "core/experiment_context.hh"

#include <algorithm>
#include <climits>
#include <cstdio>

#include "core/result_cache.hh"
#include "sim/logging.hh"
#include "util/file.hh"
#include "util/strings.hh"

namespace cellbw::core
{

ExperimentContext::ExperimentContext(std::string prog,
                                     std::string description,
                                     Backend backend)
    : opts(std::move(prog), std::move(description)), backend(backend)
{
    cell::CellConfig::registerOptions(opts);
    // The repeat spec owns its options; native defaults to one warmup
    // repetition (first-touch host caches), sim to none so existing
    // reports stay byte-identical.
    RepeatSpec::registerOptions(opts,
                                backend == Backend::Native ? 1 : 0);
    opts.addString("backend", toString(backend),
                   "execution backend (sim, native); part of the "
                   "canonical config, must match the experiment's "
                   "registration");
    opts.addUint("jobs", 0,
                 "worker threads for the experiment's runs, every "
                 "point and seed in one batch (0 = one per hardware "
                 "thread; results are identical for any value)",
                 UINT_MAX);
    opts.addBool("csv", false, "also emit CSV after the table");
    opts.addString("json", "",
                   "write a machine-readable JSON report (config, "
                   "per-point results, metrics) to this file");
    opts.addBool("quick", false, "fewer runs and bytes (CI mode)");
    opts.addBytes("bytes-per-spe", 4 * util::MiB,
                  "bytes each SPE/thread/stream moves (weak scaling; "
                  "the paper uses 32 MiB)");
    // These steer output/host scheduling only; results (and therefore
    // the cache key and the v2 report config) never depend on them.
    opts.setResultNeutral("jobs");
    opts.setResultNeutral("csv");
    opts.setResultNeutral("json");
    // --sim-profile is NOT neutral: it adds profile.* counters to the
    // report's metrics section.
}

bool
ExperimentContext::parse(int argc, const char *const *argv)
{
    if (!opts.parse(argc, argv))
        return false;
    // Cross-flag config validation (e.g. fault rates summing past
    // 1) throws FatalError; report it like any other bad flag
    // instead of letting it terminate the process.
    try {
        cfg = cell::CellConfig::fromOptions(opts);
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", opts.prog().c_str(),
                     e.what());
        return false;
    }
    // --backend is canonical config: an unknown value is an error with
    // a named diagnostic, and a known value must match the backend the
    // experiment was registered for (bodies are written against one).
    Backend requested;
    if (!parseBackend(opts.getString("backend"), requested)) {
        std::fprintf(stderr,
                     "%s: unknown backend '%s' (known backends: %s)\n",
                     opts.prog().c_str(),
                     opts.getString("backend").c_str(),
                     knownBackends());
        return false;
    }
    if (requested != backend) {
        std::fprintf(stderr,
                     "%s: this experiment runs on the %s backend, not "
                     "'%s'\n",
                     opts.prog().c_str(), toString(backend),
                     toString(requested));
        return false;
    }
    std::string repeatErr;
    if (!repeat.fromOptions(opts, repeatErr)) {
        std::fprintf(stderr, "%s: %s\n", opts.prog().c_str(),
                     repeatErr.c_str());
        return false;
    }
    par.jobs = static_cast<unsigned>(opts.getUint("jobs"));
    bytesPerSpe = opts.getBytes("bytes-per-spe");
    csv = opts.getBool("csv");
    jsonPath = opts.getString("json");
    if (!jsonPath.empty())
        repeat.metrics = &json.metrics();
    if (opts.getBool("quick")) {
        repeat.runs = std::min(repeat.runs, 3u);
        bytesPerSpe = std::min<std::uint64_t>(bytesPerSpe,
                                              util::MiB);
    }
    // The canonical config is now final: compute the cache identity
    // and stamp it into the report (run and suite mode agree on it).
    cacheMaterial_ = ResultCache::materialFor(opts.prog(), opts);
    cacheKey_ = ResultCache::hashKey(cacheMaterial_);
    json.setExperiment(opts.prog());
    json.setBackend(toString(backend), backendIsCacheable(backend));
    json.setCacheInfo(ResultCache::salt(), cacheKey_);
    return true;
}

void
ExperimentContext::requireSpes(unsigned n) const
{
    if (cfg.numSpes < n)
        sim::fatal("needs at least %u SPEs; --spes is %u", n, cfg.numSpes);
}

void
ExperimentContext::requireDefaultSpes() const
{
    const unsigned fixed = cell::CellConfig{}.numSpes;
    if (cfg.numSpes != fixed)
        sim::fatal("sets each point's SPE count itself; --spes must be "
                   "%u, not %u", fixed, cfg.numSpes);
}

std::vector<unsigned>
ExperimentContext::speCounts(std::initializer_list<unsigned> counts) const
{
    std::vector<unsigned> kept;
    for (unsigned n : counts) {
        if (n <= cfg.numSpes)
            kept.push_back(n);
    }
    if (kept.empty())
        requireSpes(std::min(counts));
    return kept;
}

void
ExperimentContext::header(const char *figure, const char *what)
{
    json.setBench(opts.prog(), figure, what);
    printf("== %s: %s ==\n", figure, what);
    if (backend == Backend::Native) {
        printf("   machine: native host backend, %u runs/point "
               "(+%u warmup), %s per buffer\n\n",
               repeat.runs, repeat.warmup,
               util::bytesToString(bytesPerSpe).c_str());
        return;
    }
    printf("   machine: %.1f GHz Cell blade, %u EIB rings, "
           "ramp peak %.1f GB/s, %u runs/point, %s per "
           "SPE/stream\n\n",
           cfg.clock.cpuHz / 1e9, cfg.eib.numRings,
           cfg.rampPeakGBps(), repeat.runs,
           util::bytesToString(bytesPerSpe).c_str());
}

void
ExperimentContext::emit(const stats::Table &table, const std::string &name)
{
    print(table.render());
    if (csv)
        printf("\n-- CSV --\n%s", table.renderCsv().c_str());
    printf("\n");
    if (!jsonPath.empty())
        json.addTable(name, table);
}

void
ExperimentContext::print(const std::string &s)
{
    if (!quiet_)
        std::fputs(s.c_str(), stdout);
}

void
ExperimentContext::printf(const char *fmt, ...)
{
    if (quiet_)
        return;
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
}

void
ExperimentContext::setSuite(const std::string &suiteId)
{
    json.setSuite(suiteId);
}

int
ExperimentContext::finish()
{
    if (jsonPath.empty() && !cache_)
        return 0;
    json.setConfig(opts);
    std::string doc = json.render();
    doc += '\n';
    // Native measurements are never cached: replaying a stored number
    // as a fresh measurement would be wrong (the cache contract is
    // bit-identical deterministic replay).
    if (cache_ && backendIsCacheable(backend))
        cache_->store(cacheKey_, cacheMaterial_, doc);
    if (jsonPath.empty())
        return 0;
    if (!util::writeFileAtomic(jsonPath, doc)) {
        std::fprintf(stderr, "%s: cannot write %s\n",
                     opts.prog().c_str(), jsonPath.c_str());
        return 1;
    }
    printf("json report written to %s\n", jsonPath.c_str());
    return 0;
}

} // namespace cellbw::core
