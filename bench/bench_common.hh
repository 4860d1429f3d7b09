/**
 * @file
 * Shared includes for the figure-reproduction experiment TUs.
 *
 * The per-bench lifecycle (flag parsing, header, table/CSV/JSON
 * emission) lives in core::ExperimentContext, owned by the
 * core::ExperimentRegistry: each TU here defines a body
 * `int run(core::ExperimentContext &b)` and registers it with
 * CELLBW_REGISTER_EXPERIMENT.  The `cellbw` driver is the one binary
 * that runs them: `cellbw run <name>` goes through
 * core::runExperimentCli().
 *
 * Bodies print through the context (b.print / b.printf), never
 * directly to stdout, so `cellbw suite` can run them quietly.
 */

#ifndef CELLBW_BENCH_BENCH_COMMON_HH
#define CELLBW_BENCH_BENCH_COMMON_HH

#include <string>

#include "cell/config.hh"
#include "core/experiment_context.hh"
#include "core/experiment_registry.hh"
#include "core/json_report.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "sim/logging.hh"
#include "stats/ascii_chart.hh"
#include "stats/table.hh"
#include "util/options.hh"
#include "util/strings.hh"

#endif // CELLBW_BENCH_BENCH_COMMON_HH
