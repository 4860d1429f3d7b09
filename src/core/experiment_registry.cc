#include "core/experiment_registry.hh"

#include <cstdio>
#include <exception>
#include <optional>

#include "core/worker_pool.hh"
#include "sim/logging.hh"
#include "util/strings.hh"

namespace cellbw::core
{

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(Experiment e)
{
    if (experiments_.count(e.name)) {
        sim::fatal("duplicate experiment registration: %s",
                   e.name.c_str());
    }
    std::string name = e.name;
    experiments_.emplace(std::move(name), std::move(e));
}

const Experiment *
ExperimentRegistry::find(const std::string &name) const
{
    auto it = experiments_.find(name);
    return it == experiments_.end() ? nullptr : &it->second;
}

std::vector<const Experiment *>
ExperimentRegistry::sorted() const
{
    std::vector<const Experiment *> out;
    out.reserve(experiments_.size());
    for (const auto &kv : experiments_)
        out.push_back(&kv.second);    // std::map: already name-sorted
    return out;
}

std::string
ExperimentRegistry::listText(std::optional<Backend> filter) const
{
    std::vector<const Experiment *> shown;
    for (const Experiment *e : sorted()) {
        if (!filter || e->backend == *filter)
            shown.push_back(e);
    }
    std::string out = util::format("%zu experiments:\n", shown.size());
    for (const Experiment *e : shown) {
        out += util::format("  %-20s %-12s %-8s %s\n", e->name.c_str(),
                            e->figure.c_str(), toString(e->backend),
                            e->description.c_str());
    }
    return out;
}

int
runExperimentCli(const std::string &name, int argc,
                 const char *const *argv)
{
    const Experiment *e = ExperimentRegistry::instance().find(name);
    if (!e) {
        std::fprintf(stderr,
                     "cellbw: unknown experiment '%s' (see `cellbw "
                     "list`)\n",
                     name.c_str());
        return 1;
    }
    ExperimentContext ctx(e->name, e->description, e->backend);
    if (!ctx.parse(argc, argv))
        return 1;
    // One pool for the whole experiment, as wide as --jobs: its batch
    // holds every point's runs, so all workers stay busy.  One job
    // runs inline, no threads.
    std::optional<WorkerPool> pool;
    const unsigned jobs = WorkerPool::width(ctx.par.jobs);
    if (jobs > 1) {
        pool.emplace(jobs);
        ctx.par.pool = &*pool;
    }
    // A config the simulator rejects mid-run (say, an EIB with no
    // rings) is the user's error, reported like `suite` and `serve` do.
    try {
        return e->body(ctx);
    } catch (const std::exception &ex) {
        std::fprintf(stderr, "cellbw run: %s: %s\n", e->name.c_str(),
                     ex.what());
        return 1;
    }
}

} // namespace cellbw::core
