/**
 * @file
 * The paper's experiments as reusable bodies.
 *
 * Each run* function performs one experiment on a freshly built
 * CellSystem and returns the sustained bandwidth in GB/s computed
 * exactly as the paper does: bytes the benchmark moves (counting both
 * directions for copy) divided by elapsed time.
 *
 * Use core::runBatch() (or core::repeatRuns() for one point) to
 * execute a body over N placement-randomized systems and obtain the
 * min/max/median/mean distributions of Figures 13 and 16.
 */

#ifndef CELLBW_CORE_EXPERIMENTS_HH
#define CELLBW_CORE_EXPERIMENTS_HH

#include <cstdint>

#include "cell/cell_system.hh"
#include "ppe/ppu.hh"

namespace cellbw::core
{

/** Operation for the DMA experiments. */
enum class DmaOp { Get, Put, Copy };

const char *toString(DmaOp op);
const char *toString(ppe::MemOp op);

/* ------------------------------------------------------------------ */
/*  PPE experiments (Figures 3, 4, 6)                                  */
/* ------------------------------------------------------------------ */

struct PpeStreamConfig
{
    unsigned threads = 1;           ///< 1 or 2 SMT threads
    unsigned elemSize = 16;         ///< 1, 2, 4, 8, 16 bytes
    ppe::MemOp op = ppe::MemOp::Load;
    std::uint64_t bufferBytes = 12 * util::KiB;  ///< per thread
    std::uint64_t totalBytes = 4 * util::MiB;    ///< per thread, swept
};

/** Buffer sizes that land the sweep in L1 / L2 / main memory. */
PpeStreamConfig ppeL1Config(unsigned threads, unsigned elem,
                            ppe::MemOp op);
PpeStreamConfig ppeL2Config(unsigned threads, unsigned elem,
                            ppe::MemOp op);
PpeStreamConfig ppeMemConfig(unsigned threads, unsigned elem,
                             ppe::MemOp op);

double runPpeStream(cell::CellSystem &sys, const PpeStreamConfig &cfg);

/* ------------------------------------------------------------------ */
/*  SPU <-> Local Store (Section 4.2.2)                                 */
/* ------------------------------------------------------------------ */

struct SpuLsConfig
{
    unsigned elemSize = 16;
    ppe::MemOp op = ppe::MemOp::Load;   // reuse Load/Store/Copy labels
    std::uint64_t totalBytes = 8 * util::MiB;
};

double runSpuLs(cell::CellSystem &sys, const SpuLsConfig &cfg);

/* ------------------------------------------------------------------ */
/*  SPE <-> main memory DMA (Figure 8)                                 */
/* ------------------------------------------------------------------ */

struct SpeMemConfig
{
    unsigned numSpes = 1;
    std::uint32_t elemBytes = 16 * 1024;
    DmaOp op = DmaOp::Get;
    bool useList = false;
    unsigned syncEvery = 0;             ///< 0 = delay sync to the end
    std::uint64_t bytesPerSpe = 4 * util::MiB;  ///< weak scaling
};

double runSpeMem(cell::CellSystem &sys, const SpeMemConfig &cfg);

/* ------------------------------------------------------------------ */
/*  SPE <-> SPE local-store DMA (Figures 10, 12, 13, 15, 16)           */
/* ------------------------------------------------------------------ */

/** Topology of the SPE-to-SPE experiments. */
enum class SpeSpeMode
{
    Couples,    ///< logical pairs (0,1),(2,3),..; even index initiates
    Cycle,      ///< every SPE initiates with its logical neighbor
};

struct SpeSpeConfig
{
    SpeSpeMode mode = SpeSpeMode::Couples;
    unsigned numSpes = 2;               ///< even, 2..8
    std::uint32_t elemBytes = 4 * 1024;
    bool useList = false;
    unsigned syncEvery = 0;
    std::uint64_t bytesPerStream = 4 * util::MiB;
};

double runSpeSpe(cell::CellSystem &sys, const SpeSpeConfig &cfg);

/* ------------------------------------------------------------------ */
/*  Random access (Chen & Bader; ROADMAP item 2)                       */
/* ------------------------------------------------------------------ */

/**
 * GUPS-style random updates: every SPE runs overlapped GET → update →
 * PUT chains against its own table of elemBytes granules at seeded
 * random addresses.  bytesPerSpe only sizes the run (the update count
 * is elemBytes-independent so the sweep's simulation cost is flat).
 */
struct RandGupsConfig
{
    unsigned numSpes = 8;
    std::uint32_t elemBytes = 8;        ///< update granule, 8..128 B
    std::uint64_t tableBytes = 4 * util::MiB;   ///< per SPE
    std::uint64_t bytesPerSpe = 4 * util::MiB;  ///< sizing knob
    unsigned slots = 8;                 ///< overlapped RMW chains
};

/** @return sustained update bandwidth in GB/s (GET + PUT bytes). */
double runRandGups(cell::CellSystem &sys, const RandGupsConfig &cfg);

/**
 * Pointer-chase / graph-traversal gather: every SPE reads a fixed
 * byte volume of randomly scattered elemBytes elements from its own
 * table, element-wise or as software-pipelined DMA-list gathers.
 */
struct RandChaseConfig
{
    unsigned numSpes = 4;
    std::uint32_t elemBytes = 16;
    std::uint64_t tableBytes = 4 * util::MiB;   ///< per SPE
    std::uint64_t bytesPerSpe = 4 * util::MiB;  ///< sizing knob
    bool useList = false;               ///< DMA-list vs element GETs
    unsigned elemsPerList = 256;
    unsigned slots = 4;                 ///< list pipeline depth
};

/** @return sustained gather bandwidth in GB/s. */
double runRandChase(cell::CellSystem &sys, const RandChaseConfig &cfg);

} // namespace cellbw::core

#endif // CELLBW_CORE_EXPERIMENTS_HH
