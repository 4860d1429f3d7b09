/**
 * @file
 * Sparse byte-addressable backing store for the simulated main-storage
 * domain.
 *
 * DMA in the simulator moves real bytes so tests can assert end-to-end
 * data integrity, exactly like running the paper's codes would.  Storage
 * is allocated in small pages (1 KiB by default) on the first nonzero
 * write, found through a flat index by ea / page.  Never-written bytes,
 * and zeros written where no page exists, read back as 0 and cost
 * nothing: most benchmarks move zero-filled buffers.  The store page is
 * deliberately not the NUMA allocator's 64 KiB interleave page: that
 * one decides bank placement, this one only how much host memory
 * scattered writes cost (4096 random 8 B updates over an 8 MiB table
 * touch most of its 64 KiB pages, but only about a third of its 1 KiB
 * ones).
 */

#ifndef CELLBW_MEM_BACKING_STORE_HH
#define CELLBW_MEM_BACKING_STORE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "util/types.hh"

namespace cellbw::mem
{

class BackingStore
{
  public:
    explicit BackingStore(std::uint64_t pageBytes = util::KiB);

    /** Copy @p size bytes from @p src into simulated memory at @p ea. */
    void write(EffAddr ea, const void *src, std::uint64_t size);

    /** Copy @p size bytes out of simulated memory at @p ea into @p dst. */
    void read(EffAddr ea, void *dst, std::uint64_t size) const;

    /** Fill @p size bytes at @p ea with @p value. */
    void fill(EffAddr ea, std::uint8_t value, std::uint64_t size);

    /**
     * Pre-fault every page in [@p ea, @p ea + @p size).  A partitioned
     * simulation with threaded windows pre-touches each allocation so
     * neither the index nor a page is created while two chips access
     * the store concurrently; serial windows back pages lazily.
     */
    void touch(EffAddr ea, std::uint64_t size);

    /** Read a single byte (0 if the page was never touched). */
    std::uint8_t byteAt(EffAddr ea) const;

    std::uint64_t pageBytes() const { return pageBytes_; }
    std::size_t touchedPages() const { return touched_; }

    /** Drop all contents. */
    void clear();

  private:
    std::uint8_t *pageFor(EffAddr ea);
    const std::uint8_t *pageForRead(EffAddr ea) const;

    std::uint64_t pageBytes_;
    /** Page number -> page; null until first written or touched. */
    std::vector<std::unique_ptr<std::uint8_t[]>> pages_;
    std::size_t touched_ = 0;
};

} // namespace cellbw::mem

#endif // CELLBW_MEM_BACKING_STORE_HH
