/**
 * @file
 * The experiment registry: every bench as a named, runnable unit.
 *
 * A core::Experiment is (name, figure tag, description, body,
 * backend).  Bench translation units register themselves with
 * CELLBW_REGISTER_EXPERIMENT at static-initialization time; the
 * `cellbw` driver then lists, runs, schedules, caches, and compares
 * them uniformly; `cellbw run <name>` is runExperimentCli().
 *
 * The backend is the fifth, optional registration argument and
 * defaults to Backend::Sim, so sim experiments register exactly as
 * they always have; native experiments pass core::Backend::Native and
 * the driver routes cache/suite/serve decisions off it.
 *
 * @code
 *   namespace {
 *   int
 *   run(core::ExperimentContext &b)
 *   {
 *       b.header("Figure 8", "...");
 *       ...
 *       return b.finish();
 *   }
 *   } // namespace
 *   CELLBW_REGISTER_EXPERIMENT(fig08_spe_mem, "Fig. 8",
 *       "SPE<->memory DMA-elem bandwidth (paper Fig. 8)", run)
 * @endcode
 *
 * Names are unique; a duplicate registration is a programming error
 * and fatal()s.
 */

#ifndef CELLBW_CORE_EXPERIMENT_REGISTRY_HH
#define CELLBW_CORE_EXPERIMENT_REGISTRY_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hh"
#include "core/experiment_context.hh"

namespace cellbw::core
{

struct Experiment
{
    /** Unique name; doubles as the `cellbw run` argument and CLI prog. */
    std::string name;
    /** Short provenance tag for `cellbw list` ("Fig. 8", "Abl. C"). */
    std::string figure;
    /** One-line description (also the --help banner). */
    std::string description;
    /** The experiment; returns the process exit code. */
    int (*body)(ExperimentContext &);
    /** Where the experiment's kernels run (sim unless registered
     *  otherwise). */
    Backend backend = Backend::Sim;
};

class ExperimentRegistry
{
  public:
    /** The process-wide registry. */
    static ExperimentRegistry &instance();

    /** Register @p e; fatal()s on a duplicate name. */
    void add(Experiment e);

    /** Lookup by name; nullptr when unknown. */
    const Experiment *find(const std::string &name) const;

    /** All experiments, sorted by name. */
    std::vector<const Experiment *> sorted() const;

    std::size_t size() const { return experiments_.size(); }

    /**
     * The `cellbw list` rendering of sorted(); with @p filter set,
     * only experiments of that backend (the --backend filter).
     */
    std::string listText(std::optional<Backend> filter = {}) const;

  private:
    std::map<std::string, Experiment> experiments_;
};

/**
 * `cellbw run` behind one call: look up @p name, build its context,
 * parse @p argv (argv[0] is ignored), and run the body with its batch
 * of runs on one WorkerPool of width(--jobs) workers (inline when that
 * is 1).  @return the process exit code; unknown names, parse errors
 * (including --help) and errors the body throws return 1.
 */
int runExperimentCli(const std::string &name, int argc,
                     const char *const *argv);

} // namespace cellbw::core

/** Optional 5th argument: the backend (defaults to Backend::Sim). */
#define CELLBW_REGISTER_EXPERIMENT(name, figure, description, body, ...) \
    namespace {                                                         \
    const bool cellbw_experiment_reg_##name = [] {                      \
        ::cellbw::core::ExperimentRegistry::instance().add(             \
            {#name, figure, description, body __VA_OPT__(, )            \
             __VA_ARGS__});                                             \
        return true;                                                    \
    }();                                                                \
    } // namespace

#endif // CELLBW_CORE_EXPERIMENT_REGISTRY_HH
