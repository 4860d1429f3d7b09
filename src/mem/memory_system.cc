#include "mem/memory_system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/metrics.hh"
#include "util/strings.hh"

namespace cellbw::mem
{

MemorySystem::MemorySystem(const std::string &name,
                           sim::PartitionedEngine &engine,
                           const MemorySystemParams &params)
    : allocator_(params.pageBytes, std::max(params.numChips, 2u)),
      numBanks_(std::max(params.numChips, 2u))
{
    links_ = std::make_unique<LinkGraph>(
        name, engine, eib::ClusterShape::of(numBanks_, params.numBlades),
        params.ioLink, params.bladeLink);
    for (unsigned b = 0; b < numBanks_; ++b) {
        banks_.push_back(std::make_unique<DramBank>(
            name + util::format(".bank%u", b),
            engine.queue(links_->partitionOf(b)),
            b == 0 ? params.bank0 : params.bank1));
    }
}

EffAddr
MemorySystem::alloc(std::uint64_t bytes, const NumaPolicy &policy)
{
    return allocator_.alloc(bytes, policy);
}

DramBank &
MemorySystem::bank(unsigned i)
{
    if (i >= numBanks_)
        sim::fatal("bank index %u out of range", i);
    return *banks_[i];
}

void
MemorySystem::registerMetrics(stats::MetricsRegistry &reg,
                              const std::string &prefix) const
{
    for (unsigned b = 0; b < numBanks_; ++b) {
        banks_[b]->registerMetrics(reg,
                                   prefix + util::format(".bank%u", b));
    }
    links_->registerMetrics(reg, prefix);
}

} // namespace cellbw::mem
