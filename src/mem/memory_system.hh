/**
 * @file
 * The cluster's main-storage domain: one XDR bank per chip (at least
 * two, so the single-chip blade still sees the second bank behind the
 * IOIF), the inter-chip link graph, the NUMA page allocator, and the
 * data contents.
 *
 * MemorySystem only owns these parts.  The cell-level DMA router
 * (cell::CellSystem) walks each line through the banks and links,
 * moves the bytes, and models the EIB part of the journey.
 */

#ifndef CELLBW_MEM_MEMORY_SYSTEM_HH
#define CELLBW_MEM_MEMORY_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/dram_bank.hh"
#include "mem/link_graph.hh"
#include "mem/page_allocator.hh"

namespace cellbw::mem
{

struct MemorySystemParams
{
    /** NUMA interleave page: the unit of bank placement.  The backing
     *  store keeps its own, smaller page (BackingStore). */
    std::uint64_t pageBytes = 64 * util::KiB;
    DramBankParams bank0;
    DramBankParams bank1;
    IoLinkParams ioLink;

    /** Inter-blade link (slower, longer than the on-blade IOIF). */
    IoLinkParams bladeLink;

    /** Cluster shape; a bank exists per chip (minimum two). */
    unsigned numChips = 1;
    unsigned numBlades = 0;    ///< 0 = auto: two chips per blade
};

class MemorySystem
{
  public:
    /** Every bank and link runs on @p eq. */
    MemorySystem(const std::string &name, sim::EventQueue &eq,
                 const MemorySystemParams &params);

    /** Allocate simulated memory; returns the base effective address. */
    EffAddr alloc(std::uint64_t bytes, const NumaPolicy &policy);

    unsigned bankOf(EffAddr ea) const { return allocator_.bankOf(ea); }

    BackingStore &store() { return store_; }
    const BackingStore &store() const { return store_; }
    PageAllocator &allocator() { return allocator_; }
    unsigned numBanks() const { return numBanks_; }
    DramBank &bank(unsigned i);

    LinkGraph &links() { return *links_; }
    const LinkGraph &links() const { return *links_; }

    /** The dual-Cell blade's IOIF (link 0), kept for the 2-chip API. */
    IoLink &ioLink() { return links_->link(0); }

    /**
     * Accumulate the memory system's utilization counters into @p reg:
     * every bank under `<prefix>.bank<i>.*` and every link's bytes
     * under `<prefix>.<link>.bytes_outbound` / `.bytes_inbound` (the
     * blade's IOIF keeps its `.ioif.*` names).
     */
    void registerMetrics(stats::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    PageAllocator allocator_;
    BackingStore store_;
    unsigned numBanks_;
    std::vector<std::unique_ptr<DramBank>> banks_;
    std::unique_ptr<LinkGraph> links_;
};

} // namespace cellbw::mem

#endif // CELLBW_MEM_MEMORY_SYSTEM_HH
