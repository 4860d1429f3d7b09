#include "mem/backing_store.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "util/align.hh"

namespace cellbw::mem
{

BackingStore::BackingStore(std::uint64_t pageBytes)
    : pageBytes_(pageBytes)
{
    if (!util::isPow2(pageBytes))
        sim::fatal("backing-store page size must be a power of two");
}

std::uint8_t *
BackingStore::pageFor(EffAddr ea)
{
    const std::uint64_t pn = ea / pageBytes_;
    if (pn >= pages_.size())
        pages_.resize(pn + 1);
    auto &page = pages_[pn];
    if (!page) {
        page = std::make_unique<std::uint8_t[]>(pageBytes_);  // zeroed
        ++touched_;
    }
    return page.get();
}

const std::uint8_t *
BackingStore::pageForRead(EffAddr ea) const
{
    const std::uint64_t pn = ea / pageBytes_;
    return pn < pages_.size() ? pages_[pn].get() : nullptr;
}

void
BackingStore::clear()
{
    pages_.clear();
    touched_ = 0;
}

void
BackingStore::write(EffAddr ea, const void *src, std::uint64_t size)
{
    const auto *p = static_cast<const std::uint8_t *>(src);
    while (size > 0) {
        std::uint64_t off = ea % pageBytes_;
        std::uint64_t chunk = std::min(size, pageBytes_ - off);
        // Zeros into a page that does not exist already read back as
        // zeros: skip them, allocating nothing.
        if (pageForRead(ea) || p[0] != 0 ||
            std::memcmp(p, p + 1, chunk - 1) != 0)
            std::memcpy(pageFor(ea) + off, p, chunk);
        ea += chunk;
        p += chunk;
        size -= chunk;
    }
}

void
BackingStore::read(EffAddr ea, void *dst, std::uint64_t size) const
{
    auto *p = static_cast<std::uint8_t *>(dst);
    while (size > 0) {
        std::uint64_t off = ea % pageBytes_;
        std::uint64_t chunk = std::min(size, pageBytes_ - off);
        const std::uint8_t *page = pageForRead(ea);
        if (page)
            std::memcpy(p, page + off, chunk);
        else
            std::memset(p, 0, chunk);
        ea += chunk;
        p += chunk;
        size -= chunk;
    }
}

void
BackingStore::fill(EffAddr ea, std::uint8_t value, std::uint64_t size)
{
    while (size > 0) {
        std::uint64_t off = ea % pageBytes_;
        std::uint64_t chunk = std::min(size, pageBytes_ - off);
        if (value != 0 || pageForRead(ea))
            std::memset(pageFor(ea) + off, value, chunk);
        ea += chunk;
        size -= chunk;
    }
}

void
BackingStore::touch(EffAddr ea, std::uint64_t size)
{
    for (EffAddr a = ea - ea % pageBytes_; a < ea + size; a += pageBytes_)
        pageFor(a);
}

std::uint8_t
BackingStore::byteAt(EffAddr ea) const
{
    const std::uint8_t *page = pageForRead(ea);
    return page ? page[ea % pageBytes_] : 0;
}

} // namespace cellbw::mem
