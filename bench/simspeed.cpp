/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself (host-side
 * performance, not modeled bandwidth): event-queue throughput and
 * end-to-end simulated-DMA cost, so regressions in the kernel show up.
 */

#include <benchmark/benchmark.h>

#include "cell/cell_system.hh"
#include "core/experiments.hh"
#include "core/runner.hh"
#include "sim/event_queue.hh"

using namespace cellbw;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue eq;
        long sum = 0;
        for (int i = 0; i < n; ++i)
            eq.schedule(static_cast<Tick>(i % 97), [&sum, i] { sum += i; });
        eq.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

/**
 * Same-tick burst delivery: the MFC/EIB hot path frequently schedules
 * dozens of completions onto the tick being drained.  Measures the
 * batched bucket drain (append while dispatching, FIFO preserved).
 */
void
BM_SameTickDrain(benchmark::State &state)
{
    const int bursts = static_cast<int>(state.range(0));
    constexpr int kPerBurst = 64;
    for (auto _ : state) {
        sim::EventQueue eq;
        long sum = 0;
        for (int b = 0; b < bursts; ++b) {
            eq.schedule(static_cast<Tick>(b), [&eq, &sum] {
                // Fan out onto the tick currently being drained.
                for (int i = 0; i < kPerBurst; ++i)
                    eq.schedule(0, [&sum, i] { sum += i; });
            });
        }
        eq.run();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * bursts *
                            (kPerBurst + 1));
}
BENCHMARK(BM_SameTickDrain)->Arg(1024);

void
BM_SingleSpeGet(benchmark::State &state)
{
    const std::uint64_t bytes = 1ull << state.range(0);
    for (auto _ : state) {
        cell::CellConfig cfg;
        cell::CellSystem sys(cfg, 1);
        core::SpeMemConfig mc;
        mc.numSpes = 1;
        mc.bytesPerSpe = bytes;
        double bw = core::runSpeMem(sys, mc);
        benchmark::DoNotOptimize(bw);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SingleSpeGet)->Arg(18)->Arg(20);

void
BM_SpePairTransfer(benchmark::State &state)
{
    for (auto _ : state) {
        cell::CellConfig cfg;
        cell::CellSystem sys(cfg, 1);
        core::SpeSpeConfig sc;
        sc.numSpes = 2;
        sc.elemBytes = 4096;
        sc.bytesPerStream = 1 * util::MiB;
        double bw = core::runSpeSpe(sys, sc);
        benchmark::DoNotOptimize(bw);
    }
}
BENCHMARK(BM_SpePairTransfer);

/**
 * The paper's 10-seed placement sweep, the unit of work every figure
 * binary repeats per data point.  Arg = --jobs; /1 vs /4 measures the
 * parallel-runner scaling (output is bit-identical for any jobs value).
 */
void
BM_SeedSweep(benchmark::State &state)
{
    const unsigned jobs = static_cast<unsigned>(state.range(0));
    cell::CellConfig cfg;
    core::RepeatSpec spec;          // 10 runs, seeds 42..51
    core::ParallelSpec par{jobs};
    for (auto _ : state) {
        auto d = core::repeatRuns(cfg, spec, [](cell::CellSystem &sys) {
            core::SpeSpeConfig sc;
            sc.numSpes = 8;
            sc.elemBytes = 4096;
            sc.bytesPerStream = 1 * util::MiB;
            return core::runSpeSpe(sys, sc);
        }, par);
        benchmark::DoNotOptimize(d.mean());
    }
    state.SetItemsProcessed(state.iterations() * spec.runs);
}
BENCHMARK(BM_SeedSweep)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/** A dual-chip run: 16 SPEs in couples, some of them across the IOIF. */
void
BM_DualChip(benchmark::State &state)
{
    for (auto _ : state) {
        cell::CellConfig cfg;
        cfg.numChips = 2;
        cfg.numSpes = 16;
        cell::CellSystem sys(cfg, 1);
        core::SpeSpeConfig sc;
        sc.numSpes = 16;
        sc.elemBytes = 4096;
        sc.bytesPerStream = 1 * util::MiB;
        double bw = core::runSpeSpe(sys, sc);
        benchmark::DoNotOptimize(bw);
    }
}
BENCHMARK(BM_DualChip)->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_PpeL1Stream(benchmark::State &state)
{
    for (auto _ : state) {
        cell::CellConfig cfg;
        cell::CellSystem sys(cfg, 1);
        auto pc = core::ppeL1Config(1, 16, ppe::MemOp::Load);
        pc.totalBytes = 1 * util::MiB;
        double bw = core::runPpeStream(sys, pc);
        benchmark::DoNotOptimize(bw);
    }
}
BENCHMARK(BM_PpeL1Stream);

} // namespace

BENCHMARK_MAIN();
