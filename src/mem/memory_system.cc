#include "mem/memory_system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/metrics.hh"
#include "util/strings.hh"

namespace cellbw::mem
{

MemorySystem::MemorySystem(std::string name, sim::EventQueue &eq,
                           const MemorySystemParams &params,
                           const std::vector<sim::EventQueue *> &bankQueues)
    : sim::SimObject(std::move(name), eq),
      allocator_(params.pageBytes, std::max(params.numChips, 2u)),
      numBanks_(std::max(params.numChips, 2u))
{
    for (unsigned b = 0; b < numBanks_; ++b) {
        sim::EventQueue &bq =
            b < bankQueues.size() && bankQueues[b] ? *bankQueues[b] : eq;
        banks_.push_back(std::make_unique<DramBank>(
            this->name() + util::format(".bank%u", b), bq,
            b == 0 ? params.bank0 : params.bank1));
    }
    links_ = std::make_unique<LinkGraph>(
        this->name(), eq,
        eib::ClusterShape::of(numBanks_, params.numBlades),
        params.ioLink, params.bladeLink);
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
